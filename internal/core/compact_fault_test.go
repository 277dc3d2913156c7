package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/lshtable"
	"bilsh/internal/vec"
)

// setProcs runs the rest of the test at GOMAXPROCS n — the only bound on the
// build's worker count — and restores the previous value when it ends.
func setProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestCompactBuildFailureLeavesIndexIntact injects a table failure partway
// through a compaction (via the mergeTable hook, which every table a
// compaction makes goes through) and verifies the published index is
// untouched: same live count, identical query results, and a subsequent
// Compact succeeds. This is the regression test for the partial-mutation
// bug class: a failed compaction must never publish half-swapped state or
// leave the compaction latch held. Groups merge concurrently, so it also
// checks that a failure stops the compaction: the injected error is the one
// returned and the workers stop claiming groups. Every table merge from the
// fifth on fails, which makes the count exact whatever the scheduler does:
// a worker's first failed merge is its last call, so at most four succeed
// and one fails per worker.
func TestCompactBuildFailureLeavesIndexIntact(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			testCompactBuildFailure(t)
		})
	}
}

func testCompactBuildFailure(t *testing.T) {
	const groups, tables, failAt = 16, 3, 5
	ix, data := dynamicIndex(t, Options{Partitioner: PartitionRPTree, Groups: groups,
		Params: lshfunc.Params{M: 4, L: tables, W: 4}})
	if ix.NumGroups() != groups {
		t.Fatalf("built %d groups, want %d", ix.NumGroups(), groups)
	}
	for i := 0; i < 15; i++ {
		v := vec.Clone(data.Row(i))
		v[0] += 0.01
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 50; i < 55; i++ {
		if !ix.Delete(i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	wantLen := ix.Len()

	queries := make([][]float32, 10)
	type answer struct {
		ids   []int
		dists []float64
	}
	before := make([]answer, len(queries))
	for qi := range queries {
		queries[qi] = vec.Clone(data.Row(qi * 11))
		res, _ := ix.Query(queries[qi], 5)
		before[qi] = answer{res.IDs, res.Dists}
	}

	boom := errors.New("injected table merge failure")
	orig := mergeTable
	defer func() { mergeTable = orig }()
	var calls atomic.Int64
	mergeTable = func(b *lshtable.Builder, tab *lshtable.Table, remap []int, keys []byte, keyLen int, ids []int) (*lshtable.Table, error) {
		if calls.Add(1) >= failAt { // fail mid-compaction: some groups already merged
			return nil, boom
		}
		return orig(b, tab, remap, keys, keyLen, ids)
	}
	if _, err := ix.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact error = %v, want injected failure", err)
	}
	workers := min(runtime.GOMAXPROCS(0), groups)
	if got, limit := int(calls.Load()), failAt-1+workers; got > limit {
		t.Fatalf("compaction continued after failure: %d merge calls with %d workers, want <= %d of %d",
			got, workers, limit, groups*tables)
	}
	mergeTable = orig

	// The failed attempt must not have changed anything observable.
	if got := ix.Len(); got != wantLen {
		t.Fatalf("Len after failed Compact = %d, want %d", got, wantLen)
	}
	for qi := range queries {
		res, _ := ix.Query(queries[qi], 5)
		if !reflect.DeepEqual(res.IDs, before[qi].ids) || !reflect.DeepEqual(res.Dists, before[qi].dists) {
			t.Fatalf("query %d changed after failed Compact:\n got %v %v\nwant %v %v",
				qi, res.IDs, res.Dists, before[qi].ids, before[qi].dists)
		}
	}

	// The compaction latch must be free and a retry must fully succeed.
	mapping, err := ix.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != wantLen || ix.N() != wantLen {
		t.Fatalf("after retry Compact Len=%d N=%d want %d", ix.Len(), ix.N(), wantLen)
	}
	deleted := 0
	for _, m := range mapping {
		if m == -1 {
			deleted++
		}
	}
	if deleted != 5 {
		t.Fatalf("retry mapping reports %d deletions, want 5", deleted)
	}
}
