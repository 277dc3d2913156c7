// Package shortlist implements the short-list search stage — ranking each
// query's candidate set by exact distance and keeping the k best — which
// the paper identifies as the bottleneck of every LSH pipeline (>95% of
// running time, Section V-B).
//
// Three engines mirror the three systems of Figure 4:
//
//   - Serial: one heap per query on one goroutine — the CPU (LSHKIT-role)
//     baseline.
//   - PerQuery: one goroutine per query batch, each with its own heap —
//     the naive "per-thread per-query" GPU mapping.
//   - WorkQueue: the paper's contribution — all (query, candidate) pairs
//     are flattened into a bounded work queue, distances are computed in
//     bulk, a clustered sort orders candidates within each query, and a
//     compact step keeps the best k, iterating in passes until all
//     candidates are consumed (Figure 3).
//
// All engines report operation counts so the parsim cost model can map the
// same executions onto a p-core device (the GPU substitution documented in
// DESIGN.md). The same counts are accumulated process-wide, labeled by
// engine, into the metrics registry (bilsh_shortlist_*; see
// docs/metrics.md), so a running server shows the relative work of the
// engines without re-running the cost model.
package shortlist

import (
	"cmp"
	"runtime"
	"slices"

	"bilsh/internal/chunk"
	"bilsh/internal/knn"
	"bilsh/internal/topk"
	"bilsh/internal/vec"
)

// Request is one query with its candidate ids. Duplicates (as produced by
// multi-table probing) are tolerated: the candidate set A(v) is a set, so
// the heap engines skip repeats before the distance computation while the
// work-queue engine eliminates them in its compact step.
type Request struct {
	Query      []float32
	Candidates []int
}

// OpStats counts the work an engine performed; the parsim model consumes
// these.
type OpStats struct {
	// DistanceOps is the number of exact distance evaluations.
	DistanceOps int
	// HeapOps is the number of heap pushes (accepted or rejected probes).
	HeapOps int
	// SortedItems is the total number of items passed through clustered
	// sorts (work-queue engine only).
	SortedItems int
	// Passes is the number of work-queue passes (work-queue engine only).
	Passes int
	// MaxPerQuery is the largest single-query candidate count, which
	// bounds the naive parallel engine's critical path.
	MaxPerQuery int
}

// Engine ranks candidates for a batch of queries.
type Engine interface {
	Name() string
	Search(data *vec.Matrix, reqs []Request, k int) ([]knn.Result, OpStats)
}

// resultFromHeap converts a heap to a knn.Result with squared distances.
func resultFromHeap(h *topk.Heap) knn.Result {
	items := h.Sorted()
	r := knn.Result{IDs: make([]int, len(items)), Dists: make([]float64, len(items))}
	for i, it := range items {
		r.IDs[i] = it.ID
		r.Dists[i] = it.Dist
	}
	return r
}

// ---------------------------------------------------------------------------
// Serial

// Serial is the single-threaded heap-per-query reference engine.
type Serial struct{}

// Name implements Engine.
func (Serial) Name() string { return "serial" }

// Search implements Engine.
func (Serial) Search(data *vec.Matrix, reqs []Request, k int) ([]knn.Result, OpStats) {
	out := make([]knn.Result, len(reqs))
	var st OpStats
	h := topk.New(k)
	seen := make(map[int]struct{})
	for qi, req := range reqs {
		h.Reset()
		clear(seen)
		if len(req.Candidates) > st.MaxPerQuery {
			st.MaxPerQuery = len(req.Candidates)
		}
		for _, id := range req.Candidates {
			if _, dup := seen[id]; dup {
				continue // multi-table unions repeat ids; A(v) is a set
			}
			seen[id] = struct{}{}
			d := vec.SqDist(data.Row(id), req.Query)
			st.DistanceOps++
			st.HeapOps++
			h.Push(id, d)
		}
		out[qi] = resultFromHeap(h)
	}
	recordOps("serial", len(reqs), st)
	return out, st
}

// ---------------------------------------------------------------------------
// PerQuery (naive parallel)

// PerQuery fans queries out to GOMAXPROCS workers, one heap per query —
// the naive GPU mapping whose weakness is load imbalance: the batch
// finishes when its largest candidate list does.
type PerQuery struct {
	// Workers overrides the worker count (default GOMAXPROCS).
	Workers int
}

// Name implements Engine.
func (PerQuery) Name() string { return "per-query" }

// Search implements Engine.
func (e PerQuery) Search(data *vec.Matrix, reqs []Request, k int) ([]knn.Result, OpStats) {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]knn.Result, len(reqs))
	stats := make([]OpStats, workers)
	chunk.Claim(len(reqs), workers, func(w int, next func() (int, bool)) error {
		h := topk.New(k)
		seen := make(map[int]struct{})
		st := &stats[w]
		for qi, ok := next(); ok; qi, ok = next() {
			req := reqs[qi]
			h.Reset()
			clear(seen)
			if len(req.Candidates) > st.MaxPerQuery {
				st.MaxPerQuery = len(req.Candidates)
			}
			for _, id := range req.Candidates {
				if _, dup := seen[id]; dup {
					continue
				}
				seen[id] = struct{}{}
				d := vec.SqDist(data.Row(id), req.Query)
				st.DistanceOps++
				st.HeapOps++
				h.Push(id, d)
			}
			out[qi] = resultFromHeap(h)
		}
		return nil
	})
	var st OpStats
	for _, s := range stats {
		st.DistanceOps += s.DistanceOps
		st.HeapOps += s.HeapOps
		if s.MaxPerQuery > st.MaxPerQuery {
			st.MaxPerQuery = s.MaxPerQuery
		}
	}
	recordOps("per-query", len(reqs), st)
	return out, st
}

// ---------------------------------------------------------------------------
// WorkQueue

// WorkQueue is the paper's work-queue engine (Figure 3): bounded passes of
// flatten → bulk distance → clustered sort → compact.
type WorkQueue struct {
	// QueueCap bounds the number of work items per pass ("the number of
	// queries that can fit into the global memory"); default 1<<16.
	QueueCap int
	// Workers parallelizes the bulk distance computation (default
	// GOMAXPROCS).
	Workers int
}

// Name implements Engine.
func (WorkQueue) Name() string { return "work-queue" }

type workItem struct {
	query int
	id    int
	dist  float64
}

// Search implements Engine.
func (e WorkQueue) Search(data *vec.Matrix, reqs []Request, k int) ([]knn.Result, OpStats) {
	queueCap := e.QueueCap
	if queueCap <= 0 {
		queueCap = 1 << 16
	}
	// A pass must at least hold one query's seed plus one new candidate.
	if queueCap < 2*k+2 {
		queueCap = 2*k + 2
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var st OpStats
	// Current best-k per query, carried across passes ("the initial
	// k-nearest neighbors are ... the results from previous LSH tables").
	best := make([][]topk.Item, len(reqs))
	offsets := make([]int, len(reqs)) // progress into each candidate list
	for _, req := range reqs {
		if len(req.Candidates) > st.MaxPerQuery {
			st.MaxPerQuery = len(req.Candidates)
		}
	}

	queue := make([]workItem, 0, queueCap)
	for {
		queue = queue[:0]
		// Fill phase: seed with current results, then append unprocessed
		// candidates until the queue is full.
		for qi := range reqs {
			rem := len(reqs[qi].Candidates) - offsets[qi]
			if rem == 0 {
				continue
			}
			// Seed current top-k so compact merges old and new (Fig. 3).
			for _, it := range best[qi] {
				queue = append(queue, workItem{query: qi, id: it.ID, dist: it.Dist})
			}
			take := rem
			if len(queue)+take > queueCap {
				take = queueCap - len(queue)
				if take < 0 {
					take = 0
				}
			}
			for i := 0; i < take; i++ {
				id := reqs[qi].Candidates[offsets[qi]+i]
				queue = append(queue, workItem{query: qi, id: id, dist: -1})
			}
			offsets[qi] += take
			if len(queue) >= queueCap {
				break
			}
		}
		if len(queue) == 0 {
			break
		}
		st.Passes++

		// Bulk distance phase (parallel chunks).
		chunks := min(workers, len(queue))
		dops := make([]int, chunks)
		chunk.Run(len(queue), chunks, func(c, lo, hi int) {
			for i := lo; i < hi; i++ {
				if queue[i].dist < 0 {
					queue[i].dist = vec.SqDist(data.Row(queue[i].id), reqs[queue[i].query].Query)
					dops[c]++
				}
			}
		})
		for _, d := range dops {
			st.DistanceOps += d
		}

		// Clustered sort: by (query, dist, id) — candidates of the same
		// query become contiguous and ascending.
		slices.SortFunc(queue, func(a, b workItem) int {
			if a.query != b.query {
				return cmp.Compare(a.query, b.query)
			}
			if a.dist != b.dist {
				return cmp.Compare(a.dist, b.dist)
			}
			return cmp.Compare(a.id, b.id)
		})
		st.SortedItems += len(queue)

		// Compact: first k distinct ids per query become the new best.
		i := 0
		for i < len(queue) {
			qi := queue[i].query
			j := i
			items := best[qi][:0]
			var lastID = -1
			for j < len(queue) && queue[j].query == qi {
				if len(items) < k && queue[j].id != lastID {
					items = append(items, topk.Item{ID: queue[j].id, Dist: queue[j].dist})
					lastID = queue[j].id
				}
				j++
			}
			best[qi] = items
			i = j
		}
	}

	out := make([]knn.Result, len(reqs))
	for qi, items := range best {
		r := knn.Result{IDs: make([]int, len(items)), Dists: make([]float64, len(items))}
		for i, it := range items {
			r.IDs[i] = it.ID
			r.Dists[i] = it.Dist
		}
		out[qi] = r
	}
	recordOps("work-queue", len(reqs), st)
	return out, st
}
