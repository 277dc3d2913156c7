package router

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bilsh/internal/httpx"
	"bilsh/internal/httpx/httpxtest"
	"bilsh/internal/xrand"
)

// requestTypes lists every request type a router vector endpoint decodes,
// each as a constructor of a zero value and its field table.
var requestTypes = []func() (interface{}, []httpx.Field){
	func() (interface{}, []httpx.Field) { q := new(queryRequest); return q, q.fields() },
	func() (interface{}, []httpx.Field) { b := new(batchRequest); return b, b.fields() },
	func() (interface{}, []httpx.Field) { q := new(insertRequest); return q, insertFields(q) },
}

// FuzzRequestParity is the differential test of the canonical request
// decoder on the router's request types: whatever body it accepts,
// encoding/json accepts with an equal value.
func FuzzRequestParity(f *testing.F) {
	for _, s := range []string{
		`{"vector":[1,2.5,-3e-7,0],"k":10,"spill":2}`,
		`{"k":10,"vector":[0.1,-0,1E+3]}`,
		`{"vectors":[[1,2],[],[3]],"k":3,"spill":1,"recall":0.9}`,
		`{"vector":[1]}`,
		"\t{\"vector\" :\n[ 1 , 2 ] , \"probes\" : 4 }\r\n",
		`{"vector":[1],"spill":1e2}`,
		`{"vector":[3.5e38,-3.5e38]}`,
		`{"vector":[-]}`,
		`{"SPILL":1}`,
		`{"vector":[1]}`,
		`{"k":1,"k":2}`,
		`{"vectors":[null]}`,
		`{"vector":[1]}{}`,
		`{"vectors":[[1],]}`,
		`{"spill":-9223372036854775809}`,
		`{"recall":1e400}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, newReq := range requestTypes {
			httpxtest.CheckParity(t, body, newReq)
		}
	})
}

// TestMarshaledRequestsAreCanonical pins that json.Marshal of randomized
// valid router requests, and the map-ordered bodies of a client
// marshalling a map ({"k":…,"spill":…,"vector":…}), take the canonical
// path.
func TestMarshaledRequestsAreCanonical(t *testing.T) {
	rng := xrand.New(21)
	vector := func() []float32 {
		v := make([]float32, rng.Intn(20))
		for i := range v {
			v[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
		}
		return v
	}
	plan := func() httpx.QueryPlan {
		return httpx.QueryPlan{TargetRecall: rng.Float64(), Probes: rng.Intn(100),
			Tables: rng.Intn(10), HierMinCandidates: rng.Intn(50), RerankFactor: rng.Intn(8),
			StableProbes: rng.Intn(8), MaxCandidates: rng.Intn(5000)}
	}
	for trial := 0; trial < 200; trial++ {
		rows := make([][]float32, rng.Intn(5))
		for i := range rows {
			rows[i] = vector()
		}
		for i, v := range []interface{}{
			queryRequest{Vector: vector(), K: rng.Intn(100), Spill: rng.Intn(4), QueryPlan: plan()},
			queryRequest{Vector: vector()},
			batchRequest{Vectors: rows, K: rng.Intn(100), Spill: rng.Intn(4), QueryPlan: plan()},
			insertRequest{Vector: vector()},
			map[string]interface{}{"vector": vector(), "k": 10, "spill": 2},
			map[string]interface{}{"vectors": rows, "k": 10},
		} {
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			accepted := false
			for _, newReq := range requestTypes {
				accepted = httpxtest.CheckParity(t, body, newReq) || accepted
			}
			if !accepted {
				t.Fatalf("trial %d, request %d: %s took the encoding/json path", trial, i, body)
			}
		}
	}
}

// TestTypeErrorBodiesUnchanged pins the 400 bodies encoding/json writes
// for a body that fails its types, which name the decoded Go type: the
// handlers decode into the types they always did.
func TestTypeErrorBodiesUnchanged(t *testing.T) {
	m, err := ScatterMap(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Options{Map: m, Shards: []ShardSet{{Addrs: []string{"127.0.0.1:1"}}}})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	for _, tc := range []struct{ path, body, want string }{
		{"/query", `{"vector":[0],"k":1.5}`, "1.5 into Go struct field queryRequest.k of type int"},
		{"/batch", `{"vectors":[[0]],"spill":1.5}`, "1.5 into Go struct field batchRequest.spill of type int"},
		{"/insert", `{"vector":[1e39]}`, "1e39 into Go struct field .vector of type float32"},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		want := `{"error":"invalid JSON body: json: cannot unmarshal number ` + tc.want + `"}` + "\n"
		if w.Code != http.StatusBadRequest || w.Body.String() != want {
			t.Errorf("%s %s: %d %q, want 400 %q", tc.path, tc.body, w.Code, w.Body, want)
		}
	}
}

// randomResult draws a merged result over the shapes encoding/json
// writes differently: nil and empty lists, zero, tiny and huge
// distances, failed shards and ?stats=1 blocks.
func randomResult(rng *xrand.RNG) *Result {
	res := &Result{Candidates: rng.Intn(1 << 20), ShardsContacted: rng.Intn(8), Partial: rng.Intn(2) == 0}
	for i, n := 0, rng.Intn(5)-1; i < n; i++ {
		var dist float64
		switch rng.Intn(4) {
		case 1:
			dist = math.Float64frombits(uint64(rng.Int63()) >> 1)
		case 2:
			dist = 1e-7 * rng.Float64()
		case 3:
			dist = rng.Float64() * 1e3
		}
		res.Neighbors = append(res.Neighbors, Neighbor{ID: rng.Intn(1 << 40), Dist: dist})
	}
	if rng.Intn(2) == 0 {
		res.Neighbors = []Neighbor{}
	}
	if rng.Intn(2) == 0 {
		res.FailedShards = make([]int, rng.Intn(3))
		for i := range res.FailedShards {
			res.FailedShards[i] = rng.Intn(8)
		}
	}
	if rng.Intn(2) == 0 {
		res.Stats = &ResultStats{Scanned: rng.Intn(1000), Probes: rng.Intn(100),
			TablesProbed: rng.Intn(10), ResolvedTables: rng.Intn(10),
			TerminatedEarly: rng.Intn(4), ReportingShards: rng.Intn(4)}
	}
	return res
}

// TestReplyBytesMatchEncodingJSON pins the router's /query, /batch and
// /insert replies to encoding/json byte for byte, including the map
// encodings the handlers wrote before.
func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	rng := xrand.New(22)
	for trial := 0; trial < 500; trial++ {
		httpxtest.AssertSameReply(t, randomResult(rng))
		results := make([]*Result, rng.Intn(4))
		for i := range results {
			results[i] = randomResult(rng)
		}
		httpxtest.AssertSameReply(t, &batchResponse{Results: results})
		id, shard := rng.Intn(1<<40), rng.Intn(8)
		httpxtest.AssertSameReply(t, &insertResponse{ID: id, Shard: shard})

		fast, slow := httptest.NewRecorder(), httptest.NewRecorder()
		httpx.WriteReply(fast, http.StatusOK, &batchResponse{Results: results})
		httpx.WriteJSON(slow, http.StatusOK, map[string]interface{}{"results": results})
		httpx.WriteReply(fast, http.StatusOK, &insertResponse{ID: id, Shard: shard})
		httpx.WriteJSON(slow, http.StatusOK, map[string]int{"id": id, "shard": shard})
		if !bytes.Equal(fast.Body.Bytes(), slow.Body.Bytes()) {
			t.Fatalf("reply differs from the map encoding\ngot  %q\nwant %q", fast.Body, slow.Body)
		}
	}
	httpxtest.AssertSameReply(t, &Result{Neighbors: []Neighbor{{ID: 1, Dist: math.NaN()}}})
}
