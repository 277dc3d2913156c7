package router_test

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/dataset"
	"bilsh/internal/knn"
	"bilsh/internal/lshfunc"
	"bilsh/internal/metrics"
	"bilsh/internal/router"
	"bilsh/internal/server"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// hugeW makes every projection decode to the zero lattice point, so each
// level-2 lookup degenerates to an exact scan of its partition. That
// turns "router over shards equals monolithic index" into an exact
// byte-for-byte claim instead of a statistical one: both sides scan the
// same rows, so the top-k lists must match, not just overlap.
const hugeW = 1e9

func testData(t *testing.T, n, d int) *vec.Matrix {
	t.Helper()
	spec := dataset.ClusteredSpec{N: n, D: d, Clusters: 4, IntrinsicDim: 3,
		Aspect: 3, NoiseSigma: 0.05, Spread: 8, PowerLaw: 0.3, ScaleSpread: 2}
	data, _, err := dataset.Clustered(spec, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cluster is a monolithic index plus an equivalent set of shard servers
// and a router over them.
type cluster struct {
	mono    *core.Index
	rt      *router.Router
	reg     *metrics.Registry
	servers []*httptest.Server
	shards  int
}

// leafCluster builds the leaf-aware equivalence setup: a bi-level
// monolithic index (one leaf per shard, single probe) and one
// PartitionNone shard per leaf holding exactly that leaf's rows under
// their monolithic (global) ids.
func leafCluster(t *testing.T, train *vec.Matrix, mutable bool, opt func(*router.Options)) *cluster {
	t.Helper()
	mono, err := core.Build(train, core.Options{
		Partitioner: core.PartitionRPTree, Groups: 4, AutoTuneW: false,
		ProbeMode: core.ProbeSingle,
		Params:    lshfunc.Params{M: 4, L: 1, W: hugeW},
	}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	md := mono.Describe()
	S := md.Groups
	identity := make([]int, S)
	for i := range identity {
		identity[i] = i
	}
	smap, err := router.NewShardMap(mono.Tree(), identity, S)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{mono: mono, reg: metrics.NewRegistry(), shards: S}
	sets := make([]router.ShardSet, S)
	for s := 0; s < S; s++ {
		gids := mono.GroupMembers(s)
		sort.Ints(gids)
		if len(gids) == 0 {
			t.Fatalf("leaf %d is empty; pick a bigger dataset", s)
		}
		six, err := core.Build(train.Subset(gids), core.Options{
			Partitioner: core.PartitionNone, AutoTuneW: false,
			Params: lshfunc.Params{M: 4, L: 1, W: hugeW},
		}, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		locals := make([]int, len(gids))
		for i := range locals {
			locals[i] = i
		}
		im, err := server.NewIDMap(locals, gids)
		if err != nil {
			t.Fatal(err)
		}
		api := server.New(six, mutable)
		api.SetShardID(s)
		api.SetIDMap(im)
		api.SetRegistry(metrics.NewRegistry())
		srv := httptest.NewServer(api.Handler())
		t.Cleanup(srv.Close)
		c.servers = append(c.servers, srv)
		sets[s] = router.ShardSet{Addrs: []string{srv.URL}}
	}
	o := router.Options{Map: smap, Shards: sets, Spill: 1, Registry: c.reg}
	if opt != nil {
		opt(&o)
	}
	c.rt, err = router.New(o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// scatterCluster splits a PartitionNone monolithic index round-robin
// across two shards under a scatter map.
func scatterCluster(t *testing.T, train *vec.Matrix, shards int) *cluster {
	t.Helper()
	opts := core.Options{
		Partitioner: core.PartitionNone, AutoTuneW: false,
		Params: lshfunc.Params{M: 4, L: 1, W: hugeW},
	}
	mono, err := core.Build(train, opts, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	smap, err := router.ScatterMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{mono: mono, reg: metrics.NewRegistry(), shards: shards}
	sets := make([]router.ShardSet, shards)
	for s := 0; s < shards; s++ {
		var gids []int
		for id := 0; id < train.N; id++ {
			if id%shards == s {
				gids = append(gids, id)
			}
		}
		six, err := core.Build(train.Subset(gids), opts, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		locals := make([]int, len(gids))
		for i := range locals {
			locals[i] = i
		}
		im, err := server.NewIDMap(locals, gids)
		if err != nil {
			t.Fatal(err)
		}
		api := server.New(six, false)
		api.SetShardID(s)
		api.SetIDMap(im)
		api.SetRegistry(metrics.NewRegistry())
		srv := httptest.NewServer(api.Handler())
		t.Cleanup(srv.Close)
		c.servers = append(c.servers, srv)
		sets[s] = router.ShardSet{Addrs: []string{srv.URL}}
	}
	c.rt, err = router.New(router.Options{Map: smap, Shards: sets, Registry: c.reg})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertSameResult fails unless the router result matches the monolithic
// one: same ids in the same order, same distances. Distances pass
// through JSON, which Go round-trips exactly for float64, so no epsilon.
func assertSameResult(t *testing.T, qi int, want knn.Result, got *router.Result) {
	t.Helper()
	if got.Partial {
		t.Fatalf("query %d: unexpected partial result (failed shards %v)", qi, got.FailedShards)
	}
	if len(got.Neighbors) != len(want.IDs) {
		t.Fatalf("query %d: router returned %d neighbors, monolithic %d", qi, len(got.Neighbors), len(want.IDs))
	}
	for j, nb := range got.Neighbors {
		if nb.ID != want.IDs[j] {
			t.Fatalf("query %d rank %d: router id %d, monolithic id %d\nrouter: %v\nmono ids: %v",
				qi, j, nb.ID, want.IDs[j], got.Neighbors, want.IDs)
		}
		if math.Abs(nb.Dist-want.Dists[j]) > 1e-9*(1+math.Abs(want.Dists[j])) {
			t.Fatalf("query %d rank %d: router dist %v, monolithic dist %v", qi, j, nb.Dist, want.Dists[j])
		}
	}
}

func histogram(t *testing.T, reg *metrics.Registry, name string) (count int64, sum float64) {
	t.Helper()
	for _, p := range reg.Snapshot() {
		if p.Name == name && p.Count != nil {
			return *p.Count, *p.Sum
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0, 0
}

func counter(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	total := 0.0
	found := false
	for _, p := range reg.Snapshot() {
		if p.Name == name && p.Value != nil {
			total += *p.Value
			found = true
		}
	}
	if !found {
		t.Fatalf("metric %s not found", name)
	}
	return total
}

// TestRouterMatchesMonolithicLeafAware is the core equivalence claim of
// the sharded tier: a router over one-leaf-per-shard servers answers
// exactly what the monolithic bi-level index answers, while contacting
// only the query's home-leaf shard.
func TestRouterMatchesMonolithicLeafAware(t *testing.T) {
	data := testData(t, 440, 8)
	train, queries := dataset.Split(data, 40, xrand.New(9))
	c := leafCluster(t, train, false, nil)
	ctx := context.Background()
	const k = 10
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		want, _ := c.mono.Query(q, k)
		got, err := c.rt.Query(ctx, q, k, 1)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.ShardsContacted != 1 {
			t.Fatalf("query %d: contacted %d shards, want 1 (single-probe home leaf)", i, got.ShardsContacted)
		}
		assertSameResult(t, i, want, got)
	}
	// The fan-out histogram is the proof that leaf-aware routing beats
	// full scatter: every query cost 1 shard, scatter would cost all.
	count, sum := histogram(t, c.reg, "bilsh_router_fanout_shards")
	if count != int64(queries.N) {
		t.Fatalf("fanout metric counted %d queries, want %d", count, queries.N)
	}
	if scatter := float64(queries.N * c.shards); sum >= scatter {
		t.Fatalf("fanout sum %v not below full scatter %v", sum, scatter)
	}
}

// TestRouterOverlayLifecycle drives inserts and deletes through the
// router and the monolithic index in lockstep and checks they stay
// equivalent: global id assignment matches, and queries agree after both
// mutations.
func TestRouterOverlayLifecycle(t *testing.T) {
	data := testData(t, 460, 8)
	train, rest := dataset.Split(data, 60, xrand.New(9))
	queries, extra := dataset.Split(rest, 20, xrand.New(10))
	c := leafCluster(t, train, true, nil)
	ctx := context.Background()
	const k = 10

	var gids []int
	for i := 0; i < extra.N; i++ {
		v := extra.Row(i)
		gid, _, err := c.rt.Insert(ctx, v)
		if err != nil {
			t.Fatalf("router insert %d: %v", i, err)
		}
		monoID, err := c.mono.Insert(v)
		if err != nil {
			t.Fatalf("monolithic insert %d: %v", i, err)
		}
		if gid != monoID {
			t.Fatalf("insert %d: router assigned gid %d, monolithic %d", i, gid, monoID)
		}
		gids = append(gids, gid)
	}
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		want, _ := c.mono.Query(q, k)
		got, err := c.rt.Query(ctx, q, k, 1)
		if err != nil {
			t.Fatalf("post-insert query %d: %v", i, err)
		}
		assertSameResult(t, i, want, got)
	}

	// Delete half of the inserts (broadcast on the router side) and one
	// base row, then re-check.
	for _, gid := range append(gids[:len(gids)/2], 0) {
		res := c.rt.Delete(ctx, gid)
		if len(res.FailedShards) > 0 {
			t.Fatalf("delete %d: failed shards %v", gid, res.FailedShards)
		}
		if !res.Deleted {
			t.Fatalf("delete %d: no shard held it", gid)
		}
		if !c.mono.Delete(gid) {
			t.Fatalf("monolithic delete %d: not found", gid)
		}
	}
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		want, _ := c.mono.Query(q, k)
		got, err := c.rt.Query(ctx, q, k, 1)
		if err != nil {
			t.Fatalf("post-delete query %d: %v", i, err)
		}
		assertSameResult(t, i, want, got)
	}
}

// TestRouterMatchesMonolithicScatter is the tree-less flavor: a
// PartitionNone index split round-robin, full scatter on every query.
func TestRouterMatchesMonolithicScatter(t *testing.T) {
	data := testData(t, 330, 8)
	train, queries := dataset.Split(data, 30, xrand.New(9))
	c := scatterCluster(t, train, 2)
	ctx := context.Background()
	const k = 10
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		want, _ := c.mono.Query(q, k)
		got, err := c.rt.Query(ctx, q, k, 0)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.ShardsContacted != c.shards {
			t.Fatalf("query %d: contacted %d shards, scatter should contact all %d", i, got.ShardsContacted, c.shards)
		}
		assertSameResult(t, i, want, got)
	}
}

// TestRouterMatchesMonolithicDuplicateRows stores every row twice, at
// gids i and i+n with n odd, so the two copies sit on different shards of
// a round-robin scatter and every distance is an exact tie. With k odd the
// k-th neighbor is one copy of a pair: the monolithic index keeps the
// smaller gid, and so must the router's merge, although it meets the
// shards' replies in shard order, not in id order.
func TestRouterMatchesMonolithicDuplicateRows(t *testing.T) {
	data := testData(t, 165, 8)
	base, queries := dataset.Split(data, 30, xrand.New(9))
	if base.N%2 == 0 {
		t.Fatalf("base has %d rows; the copies must land on different shards", base.N)
	}
	train := vec.NewMatrix(2*base.N, base.D)
	copy(train.Data, base.Data)
	copy(train.Data[len(base.Data):], base.Data)
	c := scatterCluster(t, train, 2)
	ctx := context.Background()
	for _, k := range []int{1, 5, 9} {
		for i := 0; i < queries.N; i++ {
			q := queries.Row(i)
			want, _ := c.mono.Query(q, k)
			got, err := c.rt.Query(ctx, q, k, 0)
			if err != nil {
				t.Fatalf("k=%d query %d: %v", k, i, err)
			}
			assertSameResult(t, i, want, got)
		}
	}
}

// TestRouterPartialResults kills one shard of a scatter cluster and
// checks the router degrades instead of failing: the reply is flagged
// partial, names the dead shard, and carries the live shard's neighbors
// (round-robin placement ⇒ only even global ids survive).
func TestRouterPartialResults(t *testing.T) {
	data := testData(t, 220, 8)
	train, queries := dataset.Split(data, 20, xrand.New(9))
	c := scatterCluster(t, train, 2)
	c.servers[1].Close()
	ctx := context.Background()
	for i := 0; i < queries.N; i++ {
		got, err := c.rt.Query(ctx, queries.Row(i), 5, 0)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !got.Partial {
			t.Fatalf("query %d: shard 1 is dead but result is not partial", i)
		}
		if len(got.FailedShards) != 1 || got.FailedShards[0] != 1 {
			t.Fatalf("query %d: failed shards %v, want [1]", i, got.FailedShards)
		}
		if len(got.Neighbors) == 0 {
			t.Fatalf("query %d: no neighbors from the surviving shard", i)
		}
		for _, nb := range got.Neighbors {
			if nb.ID%2 != 0 {
				t.Fatalf("query %d: id %d came from dead shard 1 (odd ids live there)", i, nb.ID)
			}
		}
	}
	if got := counter(t, c.reg, "bilsh_router_partial_results_total"); got != float64(queries.N) {
		t.Fatalf("partial counter %v, want %d", got, queries.N)
	}
}

// TestRouterHedging puts two slow replicas behind one shard and checks
// the hedge timer launches a duplicate attempt.
func TestRouterHedging(t *testing.T) {
	data := testData(t, 120, 8)
	train, queries := dataset.Split(data, 10, xrand.New(9))
	six, err := core.Build(train, core.Options{
		Partitioner: core.PartitionNone, AutoTuneW: false,
		Params: lshfunc.Params{M: 4, L: 1, W: hugeW},
	}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	api := server.New(six, false)
	api.SetRegistry(metrics.NewRegistry())
	slow := func() *httptest.Server {
		h := api.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(60 * time.Millisecond)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	reg := metrics.NewRegistry()
	smap, err := router.ScatterMap(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Options{
		Map:        smap,
		Shards:     []router.ShardSet{{Addrs: []string{slow().URL, slow().URL}}},
		HedgeDelay: 5 * time.Millisecond,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.Query(context.Background(), queries.Row(0), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || len(got.Neighbors) == 0 {
		t.Fatalf("hedged query failed: %+v", got)
	}
	if hedges := counter(t, reg, "bilsh_router_hedges_total"); hedges < 1 {
		t.Fatalf("hedge counter %v, want >= 1 (both replicas sleep past the hedge delay)", hedges)
	}
}

// TestRouterHealthDetectsMisconfiguredShard swaps two shard ids and
// checks the health prober pins both addresses as misconfigured rather
// than merging the wrong shards' results.
func TestRouterHealthDetectsMisconfiguredShard(t *testing.T) {
	data := testData(t, 120, 8)
	train, _ := dataset.Split(data, 10, xrand.New(9))
	sets := make([]router.ShardSet, 2)
	for s := 0; s < 2; s++ {
		six, err := core.Build(train, core.Options{
			Partitioner: core.PartitionNone, AutoTuneW: false,
			Params: lshfunc.Params{M: 4, L: 1, W: hugeW},
		}, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		api := server.New(six, false)
		api.SetShardID(1 - s) // swapped on purpose
		api.SetRegistry(metrics.NewRegistry())
		srv := httptest.NewServer(api.Handler())
		t.Cleanup(srv.Close)
		sets[s] = router.ShardSet{Addrs: []string{srv.URL}}
	}
	smap, err := router.ScatterMap(2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Options{
		Map: smap, Shards: sets,
		HealthInterval: 50 * time.Millisecond,
		Registry:       metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)
	defer rt.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		bad := 0
		for _, h := range rt.Health() {
			if h.Misconfigured {
				bad++
			}
		}
		if bad == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never flagged the swapped shard ids: %+v", rt.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
