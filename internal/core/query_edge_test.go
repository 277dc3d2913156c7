package core

import (
	"math"
	"testing"

	"bilsh/internal/knn"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// TestQueryDegenerateK: the public query surface must treat k < 1 as "ask
// for nothing, get nothing" — and vectors of the wrong dimension the same —
// with one empty result per query and never a panic, on every entry point,
// for every probe mode and worker count. A panic inside a batch worker
// goroutine would take the whole process down.
func TestQueryDegenerateK(t *testing.T) {
	data := testData(t, 200, 16, 4)
	wrongDim := testData(t, 6, 5, 5)
	type entry struct {
		name string
		run  func(ix *Index, qs *vec.Matrix, k, workers int) ([]knn.Result, int)
	}
	perQuery := func(query func(ix *Index, q []float32, k int) knn.Result) func(*Index, *vec.Matrix, int, int) ([]knn.Result, int) {
		return func(ix *Index, qs *vec.Matrix, k, _ int) ([]knn.Result, int) {
			out := make([]knn.Result, qs.N)
			for i := range out {
				out[i] = query(ix, qs.Row(i), k)
			}
			return out, len(out)
		}
	}
	entries := []entry{
		{"Query", perQuery(func(ix *Index, q []float32, k int) knn.Result {
			r, _ := ix.Query(q, k)
			return r
		})},
		{"QueryPlan", perQuery(func(ix *Index, q []float32, k int) knn.Result {
			r, _ := ix.QueryPlan(q, Plan{K: k})
			return r
		})},
		{"QueryBatch", func(ix *Index, qs *vec.Matrix, k, _ int) ([]knn.Result, int) {
			r, st := ix.QueryBatch(qs, k)
			return r, len(st)
		}},
		{"QueryBatchPlan", func(ix *Index, qs *vec.Matrix, k, _ int) ([]knn.Result, int) {
			r, st := ix.QueryBatchPlan(qs, Plan{K: k})
			return r, len(st)
		}},
		{"QueryBatchParallel", func(ix *Index, qs *vec.Matrix, k, workers int) ([]knn.Result, int) {
			r, st := ix.QueryBatchParallel(qs, k, workers)
			return r, len(st)
		}},
		{"QueryBatchParallelPlan", func(ix *Index, qs *vec.Matrix, k, workers int) ([]knn.Result, int) {
			r, st := ix.QueryBatchParallelPlan(qs, Plan{K: k}, workers)
			return r, len(st)
		}},
	}
	cases := []struct {
		name string
		qs   *vec.Matrix
		k    int
	}{
		{"k=0", data, 0},
		{"k=-1", data, -1},
		{"wrong dimension", wrongDim, 5},
	}
	for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy} {
		opts := Options{ProbeMode: mode, Probes: 8,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}}
		ix, err := Build(data, opts, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, -1} {
			if r := ix.ExactKNN(data.Row(0), k); len(r.IDs) != 0 {
				t.Errorf("mode %v: ExactKNN(k=%d) returned %d results", mode, k, len(r.IDs))
			}
		}
		for _, e := range entries {
			for _, workers := range []int{1, 4} {
				for _, tc := range cases {
					res, nstats := e.run(ix, tc.qs, tc.k, workers)
					if len(res) != tc.qs.N || nstats != tc.qs.N {
						t.Fatalf("mode %v: %s(%s, workers=%d) shape %d/%d, want %d", mode, e.name, tc.name, workers, len(res), nstats, tc.qs.N)
					}
					for qi, r := range res {
						if len(r.IDs) != 0 || len(r.Dists) != 0 {
							t.Fatalf("mode %v: %s(%s, workers=%d) query %d returned %d results", mode, e.name, tc.name, workers, qi, len(r.IDs))
						}
					}
				}
			}
		}
	}
}

// TestQueryKExceedsN: asking for more neighbors than the index holds must
// return at most n results, sorted, NaN-free and without duplicate ids.
func TestQueryKExceedsN(t *testing.T) {
	data := testData(t, 60, 12, 9)
	opts := Options{Params: lshfunc.Params{M: 4, L: 3, W: 1e9}} // giant W: all rows collide
	ix, err := Build(data, opts, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := ix.Query(data.Row(0), data.N+50)
	if len(res.IDs) != data.N {
		t.Fatalf("got %d results, want all %d rows", len(res.IDs), data.N)
	}
	seen := make(map[int]bool, len(res.IDs))
	for i, id := range res.IDs {
		if seen[id] {
			t.Errorf("duplicate id %d in result", id)
		}
		seen[id] = true
		if math.IsNaN(res.Dists[i]) {
			t.Errorf("NaN distance at rank %d", i)
		}
		if i > 0 && res.Dists[i] < res.Dists[i-1] {
			t.Errorf("distances not sorted at rank %d: %v < %v", i, res.Dists[i], res.Dists[i-1])
		}
	}
}
