package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bilsh/internal/core"
	"bilsh/internal/dataset"
	"bilsh/internal/httpx"
	"bilsh/internal/httpx/httpxtest"
	"bilsh/internal/lshfunc"
	"bilsh/internal/xrand"
)

// requestTypes lists every request type a vector endpoint decodes, each
// as a constructor of a zero value and its field table.
var requestTypes = []func() (interface{}, []httpx.Field){
	func() (interface{}, []httpx.Field) { q := new(queryRequest); return q, q.fields() },
	func() (interface{}, []httpx.Field) { b := new(batchRequest); return b, b.fields() },
	func() (interface{}, []httpx.Field) { q := new(httpx.InsertRequest); return q, httpx.InsertFields(q) },
}

// FuzzRequestParity is the differential test of the canonical request
// decoder: whatever body it accepts, encoding/json accepts with an equal
// value, for every server request type.
func FuzzRequestParity(f *testing.F) {
	for _, s := range []string{
		`{"vector":[1,2.5,-3e-7,0],"k":10}`,
		`{"k":10,"vector":[0.1,-0,1E+3]}`,
		`{"vectors":[[1,2],[],[3]],"k":3,"workers":2,"recall":0.9}`,
		`{"vector":[1],"id":7}`,
		` { "vector" : [ 1 , 2 ] , "probes" : 4 } `,
		`{"vector":[1],"k":1.0}`,
		`{"vector":[1e39]}`,
		`{"vector":[01]}`,
		`{"Vector":[1]}`,
		`{"vector":[1]}`,
		`{"vector":[1],"vector":[2]}`,
		`{"vector":null}`,
		`{"id":null}`,
		`{"vector":[1]} x`,
		`{"vector":[1,]}`,
		`{"k":99999999999999999999}`,
		`{"max_candidates":-0,"stable_probes":3,"rerank":2,"hier_min":1,"tables":2}`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, newReq := range requestTypes {
			httpxtest.CheckParity(t, body, newReq)
		}
	})
}

// TestMarshaledRequestsAreCanonical pins that what clients actually send
// takes the canonical path: json.Marshal of randomized valid requests of
// every type, the map-ordered bodies of a client marshalling a
// map[string]interface{} ({"k":…,"vector":…}), and the router's shard
// requests, which are httpx.QueryRequest and httpx.InsertRequest.
func TestMarshaledRequestsAreCanonical(t *testing.T) {
	rng := xrand.New(11)
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
		id := rng.Intn(1 << 30)
		rows := make([][]float32, rng.Intn(5))
		for i := range rows {
			rows[i] = vector()
		}
		for i, v := range []interface{}{
			queryRequest{Vector: vector(), K: rng.Intn(100), QueryPlan: plan()},
			queryRequest{Vector: vector()},
			httpx.QueryRequest{Vector: vector(), K: rng.Intn(100), QueryPlan: plan()},
			batchRequest{Vectors: rows, K: rng.Intn(100), Workers: rng.Intn(4), QueryPlan: plan()},
			httpx.InsertRequest{Vector: vector(), ID: &id},
			httpx.InsertRequest{Vector: vector()},
			map[string]interface{}{"vector": vector(), "k": 10},
			map[string]interface{}{"vector": vector()},
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
	srv, _ := testServer(t, true)
	vec := `[0,0,0,0,0,0,0,0]`
	for _, tc := range []struct{ path, body, want string }{
		{"/query", `{"vector":` + vec + `,"k":1.5}`, "queryRequest.k"},
		{"/query", `{"vector":` + vec + `,"probes":1.5}`, "queryRequest.QueryPlan.probes"},
		{"/batch", `{"vectors":[` + vec + `],"k":1.5}`, "batchRequest.k"},
		{"/insert", `{"vector":` + vec + `,"id":1.5}`, ".id"},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := `{"error":"invalid JSON body: json: cannot unmarshal number 1.5 into Go struct field ` +
			tc.want + ` of type int"}` + "\n"
		if resp.StatusCode != http.StatusBadRequest || string(b) != want {
			t.Errorf("%s %s: %d %q, want 400 %q", tc.path, tc.body, resp.StatusCode, b, want)
		}
	}
}

// randomDist draws distances over the float64 range encoding/json
// formats differently: zero, tiny ('e' form below 1e-6), ordinary and
// huge ('e' form from 1e21).
func randomDist(rng *xrand.RNG) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Float64frombits(uint64(rng.Int63()) >> 1) // mostly tiny or huge
	case 2:
		return 1e-6 * (1 + rng.Float64() - 0.5)
	case 3:
		return 1e21 * (1 + rng.Float64() - 0.5)
	case 4:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(100))
	}
	return rng.Float64() * math.Pow(10, float64(rng.Intn(20)-5))
}

func randomQueryResponse(rng *xrand.RNG) queryResponse {
	resp := queryResponse{Neighbors: make([]neighbor, rng.Intn(5)),
		Candidates: rng.Intn(1 << 20), Group: rng.Intn(64)}
	if rng.Intn(3) == 0 {
		resp.Neighbors = nil
	}
	for i := range resp.Neighbors {
		resp.Neighbors[i] = neighbor{ID: rng.Intn(1 << 40), Dist: randomDist(rng)}
	}
	if rng.Intn(2) == 0 {
		resp.Stats = &planStats{Scanned: rng.Intn(1000), Probes: rng.Intn(100),
			TablesProbed: rng.Intn(10), ResolvedTables: rng.Intn(10),
			ResolvedProbes: rng.Intn(100), TerminatedEarly: rng.Intn(2) == 0}
	}
	return resp
}

// TestReplyBytesMatchEncodingJSON pins the reply encoder to encoding/json
// byte for byte on randomized /query, /batch and /insert replies.
func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	rng := xrand.New(12)
	for trial := 0; trial < 500; trial++ {
		q := randomQueryResponse(rng)
		httpxtest.AssertSameReply(t, &q)
		b := batchResponse{Results: make([]queryResponse, rng.Intn(4))}
		for i := range b.Results {
			b.Results[i] = randomQueryResponse(rng)
		}
		httpxtest.AssertSameReply(t, &b)
		httpxtest.AssertSameReply(t, &insertResponse{ID: rng.Intn(1 << 40)})
	}
	httpxtest.AssertSameReply(t, &batchResponse{})
	// A non-finite distance is refused as encoding/json refuses it.
	httpxtest.AssertSameReply(t, &queryResponse{Neighbors: []neighbor{{ID: 1, Dist: math.Inf(1)}}})
}

// TestQueryAllocsIndependentOfDim pins that a /query costs the same
// number of allocations whatever the vector's length: the body is read
// into a pooled buffer and the vector is allocated once at its size.
func TestQueryAllocsIndependentOfDim(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	allocs := func(d int) float64 {
		data, _, err := dataset.Clustered(dataset.ClusteredSpec{N: 500, D: d, Clusters: 4,
			IntrinsicDim: 3, Aspect: 3, NoiseSigma: 0.05, Spread: 8, PowerLaw: 0.3, ScaleSpread: 2},
			xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.Build(data, core.Options{Partitioner: core.PartitionRPTree, Groups: 4,
			AutoTuneW: true, Params: lshfunc.Params{M: 4, L: 4, W: 2}}, xrand.New(2))
		if err != nil {
			t.Fatal(err)
		}
		h := New(ix, false).Handler()
		body, err := json.Marshal(map[string]interface{}{"vector": data.Row(3), "k": 10})
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Fatalf("d=%d: status %d: %s", d, w.Code, w.Body)
			}
		}
		serve() // warm the pools
		return testing.AllocsPerRun(200, serve)
	}
	small, large := allocs(128), allocs(960)
	t.Logf("/query allocations: %v at d=128, %v at d=960", small, large)
	if small != large {
		t.Fatalf("/query allocations grow with d: %v at d=128, %v at d=960", small, large)
	}
}

// BenchmarkWireCodec compares the /query wire path with encoding/json on
// the body a JSON client sends ({"k":10,"vector":[…]}) at d = 128 and
// d = 960, and on a ten-neighbour reply.
func BenchmarkWireCodec(b *testing.B) {
	rng := xrand.New(3)
	for _, d := range []int{128, 960} {
		v := make([]float32, d)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		body, err := json.Marshal(map[string]interface{}{"vector": v, "k": 10})
		if err != nil {
			b.Fatal(err)
		}
		decode := func(b *testing.B, fn func(w http.ResponseWriter, r *http.Request) bool) {
			b.ReportAllocs()
			w := httptest.NewRecorder()
			rd := &rewindBody{bytes.NewReader(body)}
			r := httptest.NewRequest(http.MethodPost, "/query", rd)
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				r.Body = rd
				if !fn(w, r) {
					b.Fatal(w.Body)
				}
			}
		}
		b.Run(fmt.Sprintf("decode/d=%d/encoding-json", d), func(b *testing.B) {
			decode(b, func(w http.ResponseWriter, r *http.Request) bool {
				var req queryRequest
				return httpx.DecodeBody(w, r, httpx.MaxBodyBytes, &req)
			})
		})
		b.Run(fmt.Sprintf("decode/d=%d/canonical", d), func(b *testing.B) {
			decode(b, func(w http.ResponseWriter, r *http.Request) bool {
				var req queryRequest
				return httpx.DecodeRequest(w, r, httpx.MaxBodyBytes, &req, req.fields())
			})
		})
	}
	resp := queryResponse{Neighbors: make([]neighbor, 10), Candidates: 1234, Group: 3}
	for i := range resp.Neighbors {
		resp.Neighbors[i] = neighbor{ID: rng.Intn(30000), Dist: rng.Float64() * 100}
	}
	encode := func(b *testing.B, fn func(w http.ResponseWriter)) {
		b.ReportAllocs()
		w := httptest.NewRecorder()
		for i := 0; i < b.N; i++ {
			w.Body.Reset()
			fn(w)
		}
	}
	b.Run("encode/k=10/encoding-json", func(b *testing.B) {
		encode(b, func(w http.ResponseWriter) { httpx.WriteJSON(w, http.StatusOK, &resp) })
	})
	b.Run("encode/k=10/canonical", func(b *testing.B) {
		encode(b, func(w http.ResponseWriter) { httpx.WriteReply(w, http.StatusOK, &resp) })
	})
}

// rewindBody is a request body a benchmark can replay without allocating.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }
