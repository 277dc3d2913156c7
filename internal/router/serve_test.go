package router_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bilsh/internal/metrics"
	"bilsh/internal/router"
)

// TestTiersExportSameHTTPMetrics scrapes /metrics from a shard server and
// from the router and requires the same HTTP and process metric families
// from both, since one dashboard reads both tiers.
func TestTiersExportSameHTTPMetrics(t *testing.T) {
	c := scatterCluster(t, testData(t, 200, 8), 1)
	rtSrv := httptest.NewServer(c.rt.Handler())
	t.Cleanup(rtSrv.Close)

	families := func(base string) []string {
		for _, path := range []string{"/healthz", "/query"} { // GET /query is a 405
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, line := range strings.Split(string(body), "\n") {
			f := strings.Fields(line)
			if len(f) == 4 && f[1] == "TYPE" &&
				(strings.HasPrefix(f[2], "bilsh_http_") || f[2] == "bilsh_process_uptime_seconds") {
				names = append(names, f[2])
			}
		}
		sort.Strings(names)
		return names
	}
	want := []string{"bilsh_http_errors_total", "bilsh_http_in_flight_requests",
		"bilsh_http_request_seconds", "bilsh_http_requests_total", "bilsh_process_uptime_seconds"}
	if got := families(c.servers[0].URL); !reflect.DeepEqual(got, want) {
		t.Errorf("server families = %v, want %v", got, want)
	}
	if got := families(rtSrv.URL); !reflect.DeepEqual(got, want) {
		t.Errorf("router families = %v, want %v", got, want)
	}
}

// blockingShard is a one-shard cluster whose shard holds every /query
// until release is closed or the router gives up on the request.
func blockingShard(t *testing.T) (rt *router.Router, entered chan struct{}, release chan struct{}) {
	t.Helper()
	entered, release = make(chan struct{}, 1), make(chan struct{})
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reading the body to its end lets the server notice the router
		// hanging up, which ends r.Context().
		io.Copy(io.Discard, r.Body)
		entered <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"neighbors":[{"id":7,"dist":0.5}],"candidates":3,"group":0}`)
	}))
	t.Cleanup(shard.Close)
	m, err := router.ScatterMap(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err = router.New(router.Options{Map: m, Shards: []router.ShardSet{{Addrs: []string{shard.URL}}},
		Timeout: time.Minute, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return rt, entered, release
}

// serveRouter runs rt.Serve on a fresh listener, sends one /query and
// returns once the shard holds it: the serve context's cancel, Serve's
// result and the query's result.
func serveRouter(t *testing.T, rt *router.Router, entered chan struct{}) (context.CancelFunc, chan error, chan *router.Result) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	served := make(chan error, 1)
	go func() { served <- rt.Serve(ctx, ln) }()
	answered := make(chan *router.Result, 1)
	go func() {
		var res *router.Result
		defer func() { answered <- res }()
		resp, err := http.Post("http://"+ln.Addr().String()+"/query", "application/json",
			strings.NewReader(`{"vector":[0,0],"k":1}`))
		if err != nil {
			t.Errorf("in-flight query: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("in-flight query status = %d", resp.StatusCode)
			return
		}
		res = new(router.Result)
		if err := json.NewDecoder(resp.Body).Decode(res); err != nil {
			t.Errorf("in-flight query: %v", err)
		}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the shard")
	}
	return cancel, served, answered
}

// TestRouterServeDrains cancels the router's serve context while a
// /query waits on its shard: the query still completes with the shard's
// answer, and Serve returns nil only after it has.
func TestRouterServeDrains(t *testing.T) {
	rt, entered, release := blockingShard(t)
	rt.SetDrainTimeout(10 * time.Second)
	cancel, served, answered := serveRouter(t, rt, entered)
	cancel()

	select {
	case err := <-served:
		t.Fatalf("Serve returned %v while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	res := <-answered
	if res == nil || res.Partial || len(res.Neighbors) != 1 || res.Neighbors[0].ID != 7 {
		t.Fatalf("in-flight query answered %+v, want the shard's neighbor 7", res)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v, want nil after a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drain")
	}
}

// TestRouterServeDrainTimeout holds the shard past the drain timeout:
// Serve reports context.DeadlineExceeded, and the request's context ends
// with the drain, so the router lets go of the shard and answers the
// query as partial.
func TestRouterServeDrainTimeout(t *testing.T) {
	rt, entered, _ := blockingShard(t)
	rt.SetDrainTimeout(100 * time.Millisecond)
	cancel, served, answered := serveRouter(t, rt, entered)
	cancel()

	select {
	case err := <-served:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Serve = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return at the drain timeout")
	}
	select {
	case res := <-answered:
		if res == nil || !res.Partial {
			t.Fatalf("query answered %+v after the drain timeout, want a partial result", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the in-flight query was not let go after the drain timeout")
	}
}
