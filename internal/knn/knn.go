// Package knn provides the exact brute-force k-nearest-neighbor reference
// (the paper's ground truth N(v)) and the three quality metrics of
// Section II-A: recall ratio (Eq. 3), error ratio (Eq. 4) and selectivity
// (Eq. 5), plus the r1/r2 variance aggregation of Section VI-B2.
package knn

import (
	"fmt"
	"runtime"

	"bilsh/internal/chunk"
	"bilsh/internal/topk"
	"bilsh/internal/vec"
)

// Result is one query's neighbor list, closest first.
type Result struct {
	IDs   []int
	Dists []float64
}

// Exact computes the exact k nearest neighbors of query within data by
// linear scan — the O(n) reference the approximate algorithms are judged
// against. k <= 0 yields an empty result.
func Exact(data *vec.Matrix, query []float32, k int) Result {
	if k <= 0 {
		return Result{IDs: []int{}, Dists: []float64{}}
	}
	h := topk.New(k)
	for i := 0; i < data.N; i++ {
		d := vec.SqDist(data.Row(i), query)
		if h.Accepts(d) {
			h.Push(i, d)
		}
	}
	return fromHeap(h)
}

// ExactAll computes ground truth for every row of queries, fanning out
// across GOMAXPROCS goroutines (the queries are independent).
func ExactAll(data, queries *vec.Matrix, k int) []Result {
	if data.D != queries.D {
		panic(fmt.Sprintf("knn: dimension mismatch data=%d queries=%d", data.D, queries.D))
	}
	out := make([]Result, queries.N)
	chunk.Claim(queries.N, runtime.GOMAXPROCS(0), func(_ int, next func() (int, bool)) error {
		for q, ok := next(); ok; q, ok = next() {
			out[q] = Exact(data, queries.Row(q), k)
		}
		return nil
	})
	return out
}

func fromHeap(h *topk.Heap) Result {
	items := h.Sorted()
	r := Result{IDs: make([]int, len(items)), Dists: make([]float64, len(items))}
	for i, it := range items {
		r.IDs[i] = it.ID
		r.Dists[i] = it.Dist // squared distance; metrics take sqrt where needed
	}
	return r
}
