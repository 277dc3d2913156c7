package core

import (
	"runtime"
	"slices"

	"bilsh/internal/chunk"
	"bilsh/internal/knn"
	"bilsh/internal/vec"
)

// QueryBatch answers a whole query set against one snapshot on one
// scratch. For ProbeHierarchy it implements the paper's protocol: compute
// every query's plain short-list size, take the batch median as the
// threshold, and climb the hierarchy only for queries below it. Other
// probe modes map Query over the batch.
func (ix *Index) QueryBatch(queries *vec.Matrix, k int) ([]knn.Result, []QueryStats) {
	return queryStats(ix.batch(queries, Plan{K: k}, 1))
}

// QueryBatchPlan is QueryBatch under an explicit plan, returning per-query
// PlanStats. QueryBatchPlan(queries, Plan{K: k}) matches QueryBatch
// byte-for-byte. Under ProbeHierarchy the paper's median rule still
// applies unless the plan sets HierMinCandidates, which replaces the rule
// with a fixed floor for every query in the batch (the sizing pass is then
// skipped entirely). The median sizing pass never terminates early: sizes
// feed the batch-wide threshold, so they must be budget-complete.
func (ix *Index) QueryBatchPlan(queries *vec.Matrix, p Plan) ([]knn.Result, []PlanStats) {
	return ix.batch(queries, p, 1)
}

// QueryBatchParallel is QueryBatch fanned out over workers goroutines
// (GOMAXPROCS when workers <= 0). Results are identical to QueryBatch: one
// snapshot is pinned for the whole batch and the hierarchy median rule is
// applied batch-wide before the parallel phase. Each worker goroutine
// holds one pooled scratch for its whole share of the batch, so the
// parallel path is as allocation-free as the serial one.
func (ix *Index) QueryBatchParallel(queries *vec.Matrix, k, workers int) ([]knn.Result, []QueryStats) {
	return queryStats(ix.batch(queries, Plan{K: k}, workers))
}

// QueryBatchParallelPlan is QueryBatchPlan fanned out over workers
// goroutines (GOMAXPROCS when workers <= 0), with the same semantics:
// default plan matches QueryBatchParallel byte-for-byte, an explicit
// HierMinCandidates replaces the median rule, and the sizing pass never
// terminates early.
func (ix *Index) QueryBatchParallelPlan(queries *vec.Matrix, p Plan, workers int) ([]knn.Result, []PlanStats) {
	return ix.batch(queries, p, workers)
}

// batch is the one loop behind the four batch entry points. It pins one
// snapshot and resolves p once. Under ProbeHierarchy with no floor in the
// plan it first applies the median rule of Section VI-B4c: a sizing pass
// gathers every query's plain single-bucket short list (no termination),
// and queries below the batch median must reach a hierarchy group at
// least that populated while the rest keep their home bucket group. Then
// every query runs through queryPlan. Both passes run on parallelFor, so
// workers <= 1 is the serial loop on one scratch.
//
// Like Query, a batch that asks for nothing (K < 1) or carries vectors of
// the wrong dimension gets one empty result per query, never a panic.
func (ix *Index) batch(queries *vec.Matrix, p Plan, workers int) ([]knn.Result, []PlanStats) {
	metBatches.Inc()
	sn := ix.loadSnap()
	results := make([]knn.Result, queries.N)
	stats := make([]PlanStats, queries.N)
	if p.K < 1 || queries.D != sn.data.D {
		return results, stats
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rp := sn.resolve(p)

	var floors []int
	if rp.mode == ProbeHierarchy && p.HierMinCandidates <= 0 {
		sizeRP := rp
		sizeRP.mode, sizeRP.stableProbes, sizeRP.maxCandidates = ProbeSingle, 0, 0
		floors = make([]int, queries.N)
		ix.parallelFor(queries.N, workers, func(qi int, s *scratch) {
			floors[qi] = sn.gatherPlan(queries.Row(qi), &sizeRP, s).Candidates
		})
		median := max(medianInt(floors), 1)
		for qi, size := range floors {
			floors[qi] = 1 // at least the home bucket group
			if size < median {
				floors[qi] = median
			}
		}
	}

	ix.parallelFor(queries.N, workers, func(qi int, s *scratch) {
		qrp := rp
		if floors != nil {
			qrp.hierMin = floors[qi]
		}
		results[qi], stats[qi] = sn.queryPlan(queries.Row(qi), &qrp, s)
	})
	return results, stats
}

// queryStats narrows a batch's PlanStats to the QueryStats the plan-less
// entry points return.
func queryStats(results []knn.Result, ps []PlanStats) ([]knn.Result, []QueryStats) {
	stats := make([]QueryStats, len(ps))
	for i := range ps {
		stats[i] = ps[i].QueryStats
	}
	return results, stats
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	cp := slices.Clone(xs)
	slices.Sort(cp)
	return cp[len(cp)/2]
}

// parallelFor runs body(i, s) for i in [0,n) on up to workers workers
// (chunk.Claim), handing each its own pooled scratch for the duration.
func (ix *Index) parallelFor(n, workers int, body func(i int, s *scratch)) {
	chunk.Claim(n, workers, func(_ int, next func() (int, bool)) error {
		s := ix.getScratch()
		defer ix.putScratch(s)
		for i, ok := next(); ok; i, ok = next() {
			body(i, s)
		}
		return nil
	})
}
