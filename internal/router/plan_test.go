package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bilsh/internal/httpx"
	"bilsh/internal/router"
)

// TestRouterServer400Parity pins the centralized-validation satellite:
// the same bad request draws a byte-identical 400 body from a shard
// server and from the router, because both funnel through
// httpx.DecodePlanRequest, httpx.DecodeDelete and httpx.NonEmptyBatch.
func TestRouterServer400Parity(t *testing.T) {
	train := testData(t, 400, 8)
	c := leafCluster(t, train, true, nil) // mutable, so /delete reaches the decoder
	rtSrv := httptest.NewServer(c.rt.Handler())
	t.Cleanup(rtSrv.Close)
	shardSrv := c.servers[0]

	vec := make([]float32, 8)
	cases := []struct {
		name string
		path string
		body map[string]interface{}
	}{
		{"negative k", "/query", map[string]interface{}{"vector": vec, "k": -2}},
		{"huge k", "/query", map[string]interface{}{"vector": vec, "k": httpx.MaxK + 1}},
		{"recall out of range", "/query?recall=1.5", map[string]interface{}{"vector": vec, "k": 3}},
		{"garbage probes", "/query?probes=abc", map[string]interface{}{"vector": vec, "k": 3}},
		{"negative tables", "/query", map[string]interface{}{"vector": vec, "k": 3, "tables": -4}},
		{"delete without id", "/delete", map[string]interface{}{}},
		{"negative delete id", "/delete", map[string]interface{}{"id": -1}},
		{"empty batch", "/batch", map[string]interface{}{"vectors": [][]float32{}, "k": 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			fetch := func(base string) (int, string) {
				resp, err := http.Post(base+tc.path, "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, string(b)
			}
			shardStatus, shardBody := fetch(shardSrv.URL)
			routerStatus, routerBody := fetch(rtSrv.URL)
			if shardStatus != http.StatusBadRequest || routerStatus != http.StatusBadRequest {
				t.Fatalf("statuses = shard %d, router %d, want 400/400", shardStatus, routerStatus)
			}
			if shardBody != routerBody {
				t.Fatalf("400 bodies differ\nshard:  %s\nrouter: %s", shardBody, routerBody)
			}
		})
	}
}

// TestRouterStatsMerge pins ?stats=1 through the router: per-shard
// PlanStats are merged with the reporting-shard count attached.
func TestRouterStatsMerge(t *testing.T) {
	train := testData(t, 400, 8)
	c := scatterCluster(t, train, 2)
	rtSrv := httptest.NewServer(c.rt.Handler())
	t.Cleanup(rtSrv.Close)

	post := func(path string, body interface{}) *router.Result {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(rtSrv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d: %s", resp.StatusCode, b)
		}
		var res router.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return &res
	}

	body := map[string]interface{}{"vector": train.Row(3), "k": 3}
	if res := post("/query", body); res.Stats != nil {
		t.Fatalf("stats attached without ?stats=1: %+v", res.Stats)
	}
	res := post("/query?stats=1", body)
	if res.Stats == nil {
		t.Fatal("?stats=1 returned no stats")
	}
	if res.Stats.ReportingShards != 2 {
		t.Fatalf("ReportingShards = %d, want 2 (scatter contacts all shards)", res.Stats.ReportingShards)
	}
	if res.Stats.Scanned <= 0 || res.Stats.TablesProbed <= 0 {
		t.Fatalf("merged stats look empty: %+v", res.Stats)
	}
	if res.Stats.TerminatedEarly != 0 {
		t.Fatalf("default plan terminated early on %d shards", res.Stats.TerminatedEarly)
	}
}

// TestRouterForwardsPlan pins plan forwarding end to end: a Tables
// override sent to the router reaches every shard (visible in the merged
// tables-probed count dropping).
func TestRouterForwardsPlan(t *testing.T) {
	train := testData(t, 400, 8)

	c := scatterCluster(t, train, 2)
	ctx := context.Background()

	full, err := c.rt.QueryPlan(ctx, train.Row(3), 3, 0, httpx.QueryPlan{}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Shards in this cluster are built with L=1, so the only observable
	// plan knob here is MaxCandidates early termination.
	capped, err := c.rt.QueryPlan(ctx, train.Row(3), 3, 0, httpx.QueryPlan{MaxCandidates: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Stats.TerminatedEarly == 0 {
		t.Fatalf("max_candidates=1 terminated no shard early: full=%+v capped=%+v", full.Stats, capped.Stats)
	}
	if capped.Stats.Scanned > full.Stats.Scanned {
		t.Fatalf("capped plan scanned more: %d > %d", capped.Stats.Scanned, full.Stats.Scanned)
	}

	// An invalid forwarded plan is rejected at the router, not the shard.
	if _, err := c.rt.QueryPlan(ctx, train.Row(3), 3, 0, httpx.QueryPlan{TargetRecall: 2}, false); err == nil {
		t.Fatal("router accepted an invalid plan")
	}
}

// TestRouterAdaptiveRace stress-tests the router's online re-tuning
// racing live proxied queries (run under -race).
func TestRouterAdaptiveRace(t *testing.T) {
	train := testData(t, 400, 8)
	c := scatterCluster(t, train, 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.rt.StartAdaptive(ctx, router.AdaptiveConfig{
		TargetRecall: 0.9,
		Interval:     time.Millisecond,
		MinSamples:   1,
	})

	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := c.rt.QueryPlan(ctx, train.Row((w*perWorker+i)%train.N), 3, 0, httpx.QueryPlan{}, true); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for c.rt.DefaultPlan().IsZero() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	dp := c.rt.DefaultPlan()
	if dp.IsZero() {
		t.Fatal("router online tuner never published a forwarded plan")
	}
	if dp.TargetRecall != 0.9 || dp.MaxCandidates <= 0 {
		t.Fatalf("forwarded plan = %+v, want TargetRecall 0.9 and a MaxCandidates cap", dp)
	}
	if _, err := c.rt.QueryPlan(ctx, train.Row(3), 3, 0, httpx.QueryPlan{}, false); err != nil {
		t.Fatalf("post-retune query failed: %v", err)
	}
}
