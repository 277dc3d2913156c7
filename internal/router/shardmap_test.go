package router_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"bilsh/internal/dataset"
	"bilsh/internal/router"
	"bilsh/internal/rptree"
	"bilsh/internal/xrand"
)

func testTree(t testing.TB, leaves int) *rptree.Tree {
	t.Helper()
	data, _, err := dataset.Clustered(dataset.ClusteredSpec{N: 300, D: 8, Clusters: 4,
		IntrinsicDim: 3, Aspect: 3, NoiseSigma: 0.05, Spread: 8, PowerLaw: 0.3, ScaleSpread: 2},
		xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := rptree.Build(data, rptree.Options{Leaves: leaves}, xrand.New(6))
	return tree
}

func TestAssignLeavesBalances(t *testing.T) {
	sizes := []int{100, 90, 10, 10, 5, 5}
	out := router.AssignLeaves(sizes, 2)
	if len(out) != len(sizes) {
		t.Fatalf("assignment covers %d leaves, want %d", len(out), len(sizes))
	}
	load := make([]int, 2)
	for leaf, s := range out {
		if s < 0 || s > 1 {
			t.Fatalf("leaf %d assigned to shard %d", leaf, s)
		}
		load[s] += sizes[leaf]
	}
	// LPT on this instance is exact: {100, 10} vs {90, 10, 5, 5}.
	if load[0] != 110 || load[1] != 110 {
		t.Fatalf("loads %v, want [110 110]", load)
	}
}

func TestShardMapValidation(t *testing.T) {
	tree := testTree(t, 4)
	n := tree.NumLeaves()
	if _, err := router.NewShardMap(tree, make([]int, n-1), 2); err == nil {
		t.Fatal("short assignment accepted")
	}
	bad := make([]int, n)
	bad[0] = 5
	if _, err := router.NewShardMap(tree, bad, 2); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := router.ScatterMap(0); err == nil {
		t.Fatal("zero-shard scatter map accepted")
	}
}

func TestShardsForDedupsAndOrders(t *testing.T) {
	tree := testTree(t, 6)
	n := tree.NumLeaves()
	// All leaves on one shard: any spill still contacts exactly it.
	m, err := router.NewShardMap(tree, make([]int, n), 1)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float32, tree.Dim())
	if got := m.ShardsFor(v, n); len(got) != 1 || got[0] != 0 {
		t.Fatalf("ShardsFor = %v, want [0]", got)
	}
	// One shard per leaf: the first shard returned is the home leaf's.
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	m, err = router.NewShardMap(tree, ident, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ShardsFor(v, 3); len(got) == 0 || got[0] != m.ShardOf(v) {
		t.Fatalf("ShardsFor = %v, home shard %d must come first", got, m.ShardOf(v))
	}
	// Scatter map: every shard, every time.
	sm, err := router.ScatterMap(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := sm.ShardsFor(v, 1); len(got) != 3 {
		t.Fatalf("scatter ShardsFor = %v, want all 3 shards", got)
	}
	if sm.ShardOf(v) != -1 {
		t.Fatalf("scatter ShardOf = %d, want -1", sm.ShardOf(v))
	}
}

func TestShardMapRoundTrip(t *testing.T) {
	tree := testTree(t, 5)
	n := tree.NumLeaves()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i % 3
	}
	m, err := router.NewShardMap(tree, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := router.ReadShardMap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != 3 || got.NumLeaves() != n || !got.LeafAware() {
		t.Fatalf("round trip lost shape: shards=%d leaves=%d aware=%v",
			got.NumShards(), got.NumLeaves(), got.LeafAware())
	}
	// Routing must survive serialization bit-for-bit.
	probe := make([]float32, tree.Dim())
	for trial := 0; trial < 50; trial++ {
		rng := xrand.New(int64(trial))
		for j := range probe {
			probe[j] = float32(rng.NormFloat64())
		}
		if a, b := m.ShardOf(probe), got.ShardOf(probe); a != b {
			t.Fatalf("trial %d: ShardOf diverged after round trip: %d vs %d", trial, a, b)
		}
	}

	// File round trip, including the scatter flavor.
	dir := t.TempDir()
	path := filepath.Join(dir, "shardmap.bin")
	if err := router.SaveShardMap(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := router.LoadShardMap(path); err != nil {
		t.Fatal(err)
	}
	sm, err := router.ScatterMap(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SaveShardMap(path, sm); err != nil {
		t.Fatal(err)
	}
	back, err := router.LoadShardMap(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.LeafAware() || back.NumShards() != 4 {
		t.Fatalf("scatter map round trip: aware=%v shards=%d", back.LeafAware(), back.NumShards())
	}
}

// FuzzReadShardMap feeds the shard-map reader arbitrary bytes, seeded
// with a leaf-aware map and a scatter map. Whatever map it accepts must
// route a vector: every shard it names is in range, ShardsFor names each
// at most once, and a leaf-aware map gives an insert a home shard.
func FuzzReadShardMap(f *testing.F) {
	tree := testTree(f, 5)
	assign := make([]int, tree.NumLeaves())
	for i := range assign {
		assign[i] = i % 3
	}
	leafAware, err := router.NewShardMap(tree, assign, 3)
	if err != nil {
		f.Fatal(err)
	}
	scatter, err := router.ScatterMap(4)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []*router.ShardMap{leafAware, scatter} {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := router.ReadShardMap(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.NumShards() < 1 || m.NumShards() > 1<<16 {
			// A scatter map's ShardsFor lists every shard; keep the
			// routing check small.
			return
		}
		v := make([]float32, m.Dim())
		for i := range v {
			v[i] = float32(i%7) - 3
		}
		for _, spill := range []int{1, 3} {
			shards := m.ShardsFor(v, spill)
			if len(shards) == 0 {
				t.Fatalf("spill %d: no shard for the vector", spill)
			}
			seen := map[int]bool{}
			for _, s := range shards {
				if s < 0 || s >= m.NumShards() || seen[s] {
					t.Fatalf("spill %d: ShardsFor = %v with %d shards", spill, shards, m.NumShards())
				}
				seen[s] = true
			}
		}
		s := m.ShardOf(v)
		if m.LeafAware() != (s >= 0) || s >= m.NumShards() {
			t.Fatalf("ShardOf = %d (leaf aware %v, %d shards)", s, m.LeafAware(), m.NumShards())
		}
	})
}
