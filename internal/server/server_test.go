package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"bilsh/internal/core"
	"bilsh/internal/dataset"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

func testIndexData(t *testing.T) (*core.Index, *vec.Matrix) {
	t.Helper()
	spec := dataset.ClusteredSpec{N: 300, D: 8, Clusters: 4, IntrinsicDim: 3,
		Aspect: 3, NoiseSigma: 0.05, Spread: 8, PowerLaw: 0.3, ScaleSpread: 2}
	data, _, err := dataset.Clustered(spec, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(data, core.Options{
		Partitioner: core.PartitionRPTree, Groups: 4, AutoTuneW: true,
		Params: lshfunc.Params{M: 4, L: 4, W: 2},
	}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	return ix, data
}

func testServer(t *testing.T, mutable bool) (*httptest.Server, *vec.Matrix) {
	t.Helper()
	ix, data := testIndexData(t)
	srv := httptest.NewServer(New(ix, mutable).Handler())
	t.Cleanup(srv.Close)
	return srv, data
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndInfo(t *testing.T) {
	srv, _ := testServer(t, false)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var d core.Description
	resp, err = http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d.N != 300 || d.Dim != 8 || d.Groups != 4 {
		t.Fatalf("info = %+v", d)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv, data := testServer(t, false)
	var out queryResponse
	status := postJSON(t, srv.URL+"/query", queryRequest{Vector: data.Row(7), K: 3}, &out)
	if status != http.StatusOK {
		t.Fatalf("query status = %d", status)
	}
	if len(out.Neighbors) == 0 || out.Neighbors[0].ID != 7 || out.Neighbors[0].Dist != 0 {
		t.Fatalf("stored row not its own NN over HTTP: %+v", out.Neighbors)
	}
	if out.Candidates <= 0 {
		t.Fatal("candidates not reported")
	}
}

func TestQueryValidation(t *testing.T) {
	srv, _ := testServer(t, false)
	// Wrong dimensionality.
	if status := postJSON(t, srv.URL+"/query", queryRequest{Vector: []float32{1, 2}, K: 3}, nil); status != http.StatusBadRequest {
		t.Fatalf("short vector status = %d", status)
	}
	// Malformed body.
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d", resp.StatusCode)
	}
	// Unknown fields rejected.
	resp, err = http.Post(srv.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"vector":[1,2,3,4,5,6,7,8],"k":3,"bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv, data := testServer(t, false)
	req := batchRequest{Vectors: [][]float32{data.Row(1), data.Row(2)}, K: 2}
	var out batchResponse
	if status := postJSON(t, srv.URL+"/batch", req, &out); status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if len(out.Results) != 2 {
		t.Fatalf("batch returned %d results", len(out.Results))
	}
	if out.Results[0].Neighbors[0].ID != 1 || out.Results[1].Neighbors[0].ID != 2 {
		t.Fatalf("batch results wrong: %+v", out.Results)
	}
	if status := postJSON(t, srv.URL+"/batch", batchRequest{K: 2}, nil); status != http.StatusBadRequest {
		t.Fatal("empty batch must 400")
	}
}

func TestMutationsRequireMutable(t *testing.T) {
	srv, data := testServer(t, false)
	body := map[string]interface{}{"vector": data.Row(0)}
	if status := postJSON(t, srv.URL+"/insert", body, nil); status != http.StatusForbidden {
		t.Fatalf("read-only insert status = %d", status)
	}
	if status := postJSON(t, srv.URL+"/delete", map[string]int{"id": 1}, nil); status != http.StatusForbidden {
		t.Fatalf("read-only delete status = %d", status)
	}
	if status := postJSON(t, srv.URL+"/compact", map[string]int{}, nil); status != http.StatusForbidden {
		t.Fatalf("read-only compact status = %d", status)
	}
}

func TestMutableLifecycle(t *testing.T) {
	srv, data := testServer(t, true)
	v := append([]float32(nil), data.Row(3)...)
	v[0] += 0.001
	var ins struct {
		ID int `json:"id"`
	}
	if status := postJSON(t, srv.URL+"/insert", map[string]interface{}{"vector": v}, &ins); status != http.StatusOK {
		t.Fatalf("insert status = %d", status)
	}
	var q queryResponse
	postJSON(t, srv.URL+"/query", queryRequest{Vector: v, K: 1}, &q)
	if q.Neighbors[0].ID != ins.ID {
		t.Fatalf("inserted vector not served: %+v", q.Neighbors)
	}
	var del struct {
		Deleted bool `json:"deleted"`
	}
	postJSON(t, srv.URL+"/delete", map[string]int{"id": ins.ID}, &del)
	if !del.Deleted {
		t.Fatal("delete reported false")
	}
	var cmp struct {
		Live int `json:"live"`
	}
	if status := postJSON(t, srv.URL+"/compact", map[string]int{}, &cmp); status != http.StatusOK {
		t.Fatalf("compact status = %d", status)
	}
	if cmp.Live != 300 {
		t.Fatalf("live after compact = %d", cmp.Live)
	}
}

// TestDeleteNeedsID pins that /delete without an id, or with a negative
// one, is a 400 that deletes nothing: a body without an id must not be
// read as id 0.
func TestDeleteNeedsID(t *testing.T) {
	srv, data := testServer(t, true)
	for _, body := range []interface{}{map[string]int{}, map[string]int{"id": -1}} {
		var e struct {
			Error string `json:"error"`
		}
		if status := postJSON(t, srv.URL+"/delete", body, &e); status != http.StatusBadRequest ||
			e.Error != `delete needs a non-negative "id"` {
			t.Fatalf("delete %v = %d %q, want 400", body, status, e.Error)
		}
	}
	var info core.Description
	resp, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Live != 300 || info.PendingDeletes != 0 {
		t.Fatalf("after rejected deletes: live %d, pending deletes %d, want 300 and 0", info.Live, info.PendingDeletes)
	}
	var q queryResponse
	postJSON(t, srv.URL+"/query", queryRequest{Vector: data.Row(0), K: 1}, &q)
	if len(q.Neighbors) != 1 || q.Neighbors[0].ID != 0 {
		t.Fatalf("row 0 no longer served: %+v", q.Neighbors)
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	// Run with -race: concurrent queries + mutations must be safe.
	srv, data := testServer(t, true)
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var out queryResponse
				raw, _ := json.Marshal(queryRequest{Vector: data.Row((g*10 + i) % data.N), K: 3})
				resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(raw))
				if err != nil {
					errCh <- err
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					errCh <- err
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			raw, _ := json.Marshal(map[string]interface{}{"vector": data.Row(i)})
			resp, err := http.Post(srv.URL+"/insert", "application/json", bytes.NewReader(raw))
			if err != nil {
				errCh <- err
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestMethodRouting(t *testing.T) {
	srv, _ := testServer(t, false)
	// GET on a POST route must 405.
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp.StatusCode)
	}
	// Unknown path 404s.
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", resp.StatusCode)
	}
}

func ExampleServer() {
	fmt.Println("see cmd/bilsh serve")
	// Output: see cmd/bilsh serve
}
