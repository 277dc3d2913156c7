package core

import (
	"runtime"
	"slices"
	"time"

	"bilsh/internal/knn"
	"bilsh/internal/lshtable"
	"bilsh/internal/topk"
	"bilsh/internal/vec"
)

// The read path. Every public query entry point loads the current snapshot
// exactly once and runs entirely against that view, so queries never take
// a lock and are unaffected by concurrent inserts, deletes and
// compactions. Batch entry points pin one snapshot for the whole batch,
// which keeps the hierarchy median rule internally consistent.

// StageTimings breaks one query's latency down by pipeline stage. The
// stages follow the paper's Section V pipeline; see the metrics catalogue
// in internal/core/metrics.go and docs/metrics.md.
type StageTimings struct {
	// Route is the level-1 descent (RP-tree / k-means group routing).
	Route time.Duration
	// Probe covers p-stable projections, lattice decoding and probe
	// sequence generation across all L tables.
	Probe time.Duration
	// Scan covers bucket lookups and the candidate-set union.
	Scan time.Duration
	// Rank covers exact distances over the short list and the top-k
	// merge (zero for CandidateList, which stops before ranking).
	Rank time.Duration
}

// QueryStats reports the work done for one query.
type QueryStats struct {
	// Group is the level-1 partition the query routed to.
	Group int
	// Candidates is |A(v)|: the number of distinct short-list candidates,
	// the numerator of the selectivity (Eq. 5).
	Candidates int
	// Scanned counts bucket entries before deduplication.
	Scanned int
	// Probes is the number of bucket lookups performed.
	Probes int
	// HierarchyLevel is the maximum hierarchy level visited (0 when the
	// home bucket sufficed or hierarchy is off).
	HierarchyLevel int
	// Timings is the per-stage wall-clock breakdown. Timings are
	// measured, not derived, so they vary run to run; every other field
	// is deterministic under a fixed seed.
	Timings StageTimings
}

// Query returns the approximate k nearest neighbors of q. For
// ProbeHierarchy the per-query bucket floor is Options.HierMinCandidates
// (default 2k); use QueryBatch for the paper's median rule.
//
// Invalid queries (wrong dimension, NaN or ±Inf components) return an
// empty result; callers that need the reason should validate with
// CheckVector first, as the HTTP handlers do.
//
// The hot path is allocation-free in steady state: per-query scratch state
// (projection and key buffers, the stamped dedup array, the top-k heap) is
// drawn from a pool, and only the returned result slices are allocated.
func (ix *Index) Query(q []float32, k int) (knn.Result, QueryStats) {
	sn := ix.loadSnap()
	if len(q) != sn.data.D || k < 1 {
		// Cheap structural check on the hot path; full NaN/Inf scanning is
		// the boundary's job (CheckVector) and garbage-in yields an empty
		// or meaningless result, never corruption. k < 1 asks for nothing
		// and gets exactly that.
		return knn.Result{}, QueryStats{}
	}
	s := ix.getScratch()
	defer ix.putScratch(s)
	return sn.query(q, k, s)
}

// query is the test seam behind Query: one snapshot load, no validation.
func (ix *Index) query(q []float32, k int, s *scratch) (knn.Result, QueryStats) {
	return ix.loadSnap().query(q, k, s)
}

func (sn *snapshot) query(q []float32, k int, s *scratch) (knn.Result, QueryStats) {
	rp := sn.defaultResolved(k)
	res, ps := sn.queryPlan(q, &rp, s)
	return res, ps.QueryStats
}

// QueryPlan answers one query under an explicit execution plan and reports
// the plan-level stats (budgets resolved, tables probed, early
// termination). QueryPlan(q, Plan{K: k}) is exactly Query(q, k): the
// default plan resolves to the index's built budgets with termination
// disabled, a property the equivalence tests pin byte-for-byte.
//
// Like Query, out-of-range plans never error here — resolution clamps
// them to the index's limits. Boundaries that owe callers an error run
// Plan.Validate first.
func (ix *Index) QueryPlan(q []float32, p Plan) (knn.Result, PlanStats) {
	sn := ix.loadSnap()
	if len(q) != sn.data.D || p.K < 1 {
		return knn.Result{}, PlanStats{}
	}
	s := ix.getScratch()
	defer ix.putScratch(s)
	rp := sn.resolve(p)
	return sn.queryPlan(q, &rp, s)
}

// queryPlan is the single execution core every public query entry point
// funnels through: gather under the resolved plan, rank, record.
func (sn *snapshot) queryPlan(q []float32, rp *resolvedPlan, s *scratch) (knn.Result, PlanStats) {
	start := time.Now()
	ps := sn.gatherPlan(q, rp, s)
	rankStart := time.Now()
	res := sn.rankWith(q, rp.k, rp.rerank, s)
	ps.Timings.Rank = time.Since(rankStart)
	recordQuery(&ps.QueryStats, time.Since(start))
	recordPlan(&ps)
	return res, ps
}

// gatherPlan is the one probe loop behind every query path, for every
// probe mode and both metrics. It walks rp.tables hash tables in build
// order; per table it asks the probe seam (probeKeys) for the table's
// block of bucket keys in confidence order — one key under ProbeSingle and
// ProbeHierarchy, up to rp.probes under ProbeMulti — resolves the block
// with one lshtable.LookupBlock and walks it in probe order: the key's
// bucket, then its overlay bucket, then the early-termination check. A
// hierarchy table answers its one key with the bucket group the hierarchy
// widens it to (Section IV-B2) instead of the bare bucket, at least
// rp.hierMin ids (2k when unset). Probe time is producing the block, Scan
// time resolving and walking it.
//
// When the plan arms early termination (rp.term()), the shortlist plateau
// is checked after every key and the loop stops as soon as a trigger
// fires; the default plan arms nothing. All cross-table state lives in the
// scratch (dedup bitset, candidate list) and the plateau counter in ts, so
// a stopped loop holds exactly the union of the buckets it walked.
func (sn *snapshot) gatherPlan(q []float32, rp *resolvedPlan, s *scratch) PlanStats {
	routeStart := time.Now()
	gi := sn.groupOf(q)
	g := sn.groups[gi]
	ps := PlanStats{
		QueryStats:     QueryStats{Group: gi},
		ResolvedTables: rp.tables,
		ResolvedProbes: rp.probes,
	}
	stats := &ps.QueryStats
	stats.Timings.Route = time.Since(routeStart)
	s.begin(sn)
	if sn.sketcher != nil {
		// One sketch, with the per-plane margins the flip order reads,
		// serves every table's key block.
		sketchStart := time.Now()
		sn.sketcher.SketchWithMargins(q, s.qbits, s.qmarg)
		stats.Timings.Probe += time.Since(sketchStart)
	}
	n := 1
	if rp.mode == ProbeMulti {
		n = rp.probes
	}
	floor := rp.hierMin
	if floor <= 0 {
		floor = 2 * rp.k
	}

	term := rp.term()
	var ts termState
	for t := 0; t < rp.tables && !ps.TerminatedEarly; t++ {
		ps.TablesProbed = t + 1
		probeStart := time.Now()
		keyLen := s.probeKeys(g, t, q, n)
		scanStart := time.Now()
		stats.Timings.Probe += scanStart.Sub(probeStart)
		if rp.mode == ProbeHierarchy {
			// s.code is the query's home code; the hierarchy only uses
			// s.hier's buffers for Morton keys and ancestor codes.
			var level int
			if g.mortonH != nil {
				s.hierIDs, level = g.mortonH[t].AppendCandidates(s.hierIDs[:0], s.code, floor, &s.hier)
			} else {
				s.hierIDs, level = g.e8H[t].AppendCandidates(s.hierIDs[:0], s.code, floor, &s.hier)
			}
			stats.HierarchyLevel = max(stats.HierarchyLevel, level)
			sn.addCandidates32(s, stats, s.hierIDs)
			// Overlay inserts are only reachable through their exact
			// bucket key until Compact folds them into the hierarchy.
			s.ords = append(s.ords[:0], lshtable.NoBucket)
		} else {
			s.ords = g.tables[t].LookupBlock(s.ords[:0], s.keys, keyLen)
		}
		for p, b := range s.ords {
			stats.Probes++
			if b != lshtable.NoBucket {
				_, ids := g.tables[t].BucketByOrdinal(int(b))
				sn.addCandidates(s, stats, ids)
			}
			sn.addOverlayCandidates(s, stats, gi, t, s.keys[p*keyLen:(p+1)*keyLen])
			if term && rp.stop(&ts, len(s.cands)) {
				ps.TerminatedEarly = true
				break
			}
		}
		stats.Timings.Scan += time.Since(scanStart)
	}
	stats.Candidates = len(s.cands)
	// Bucket ids are slices into pages owned by sn.mapped on mapped
	// snapshots; candidate ids are copied into scratch by now, but the
	// probe loop itself must not outlive the mapping.
	runtime.KeepAlive(sn)
	return ps
}

// probeKeys is the probe seam: it fills s.keys with table t's block of at
// most n bucket keys for q, most confident first, and returns the key
// length. A p-stable group hashes q through appendKeys, the seam Build and
// Insert hash rows through; a bit-sampling group flips bits of the query
// sketch gatherPlan computed (flipKeys).
func (s *scratch) probeKeys(g *group, t int, q []float32, n int) int {
	if g.bsamp != nil {
		return s.flipKeys(g.bsamp, t, n)
	}
	s.keys = g.appendKeys(s.keys[:0], t, q, n, &s.hashScratch)
	return 4 * g.lat.CodeLen()
}

// CandidateList returns the deduplicated, id-sorted candidate list for q
// under the index's probe mode, for callers that run their own short-list
// engine (e.g. the Figure 4 harness feeding the parallel engines). The
// hierarchy floor is Options.HierMinCandidates, else 2·TuneK.
func (ix *Index) CandidateList(q []float32) ([]int, QueryStats) {
	sn := ix.loadSnap()
	s := ix.getScratch()
	defer ix.putScratch(s)
	rp := sn.defaultResolved(sn.opts.TuneK)
	st := sn.gatherPlan(q, &rp, s).QueryStats
	metCandLists.Inc()
	recordStages(&st)
	s.sortCands()
	ids := make([]int, len(s.cands))
	for i, id := range s.cands {
		ids[i] = int(id)
	}
	return ids, st
}

// ExactKNN computes exact k nearest neighbors by linear scan over the
// index's live rows — the self-contained ground-truth reference (the index
// stores its vectors, so no external data file is needed).
func (ix *Index) ExactKNN(q []float32, k int) knn.Result {
	if k < 1 {
		return knn.Result{}
	}
	sn := ix.loadSnap()
	if sn.sketches != nil {
		return sn.exactHamming(q, k)
	}
	total := sn.total()
	h := topk.New(k)
	for id := 0; id < total; id++ {
		if sn.isDeleted(id) {
			continue
		}
		d := vec.SqDist(sn.row(id), q)
		if h.Accepts(d) {
			h.Push(id, d)
		}
	}
	items := h.Sorted()
	r := knn.Result{IDs: make([]int, len(items)), Dists: make([]float64, len(items))}
	for i, it := range items {
		r.IDs[i] = it.ID
		r.Dists[i] = it.Dist
	}
	// For mapped snapshots the scan above reads pages owned by sn.mapped;
	// keep the snapshot (and so the mapping) alive past the last read.
	runtime.KeepAlive(sn)
	return r
}

// rankWith is the serial short-list search over the candidate set in
// s.cands, with a per-plan re-rank factor override (0 keeps the index
// default; only meaningful under SQ8 quantization). Candidates are ranked
// in ascending id order: ids index a contiguous row-major matrix, so the
// scan walks memory forward (the linear-array layout of Section V-A) and
// the result is independent of collection order.
func (sn *snapshot) rankWith(q []float32, k, rerank int, s *scratch) knn.Result {
	if sn.sketches != nil {
		return sn.rankHamming(k, s)
	}
	s.sortCands()
	h := s.topK(k)

	// Batch the base-matrix distances (ids below data.N, a sorted prefix
	// of cands); overlay rows go one at a time.
	nBase := len(s.cands)
	if sn.hasOverlay() {
		nBase, _ = slices.BinarySearch(s.cands, int32(sn.data.N))
	}
	if cap(s.dists) < len(s.cands) {
		s.dists = make([]float64, len(s.cands))
	}
	s.dists = s.dists[:len(s.cands)]
	if sn.quant != nil {
		sn.rankBaseQuantized(q, k, rerank, s, h, nBase)
	} else {
		vec.SqDistToRows(s.dists[:nBase], sn.data.Data, sn.data.D, s.cands[:nBase], q)
		for i := 0; i < nBase; i++ {
			if d := s.dists[i]; h.Accepts(d) {
				h.Push(int(s.cands[i]), d)
			}
		}
	}
	// Overlay rows live in memory as float32 regardless of quantization,
	// so they always rank exactly.
	for i := nBase; i < len(s.cands); i++ {
		if d := vec.SqDist(sn.row(int(s.cands[i])), q); h.Accepts(d) {
			h.Push(int(s.cands[i]), d)
		}
	}

	s.items = h.AppendSorted(s.items[:0])
	r := knn.Result{IDs: make([]int, len(s.items)), Dists: make([]float64, len(s.items))}
	for i, it := range s.items {
		r.IDs[i] = it.ID
		r.Dists[i] = it.Dist
	}
	// Mapped snapshots: the distance kernels above read pages owned by
	// sn.mapped, which nothing else roots once the result is heap-copied.
	runtime.KeepAlive(sn)
	return r
}

// rankBaseQuantized is the quantized short-list scan: an approximate SQ8
// pass over all base candidates (reading 1 byte/dimension instead of 4),
// selection of the k×RerankFactor most promising ids, then an exact
// float32 re-rank of just those survivors before they enter the result
// heap. Returned distances are therefore always exact; quantization error
// can only cost recall at the selection edge, which the re-rank margin
// (and the golden quality gate) bounds. On a mapped index this is also
// the residency win: the codes are the only resident row bytes, and only
// the shortlist survivors touch the row pages.
func (sn *snapshot) rankBaseQuantized(q []float32, k, rerank int, s *scratch, h *topk.Heap, nBase int) {
	vec.SqDistToRowsSQ8(s.dists[:nBase], sn.quant, s.cands[:nBase], q)
	if rerank <= 0 {
		rerank = sn.opts.rerankFactor()
	}
	r := k * rerank
	if r < nBase {
		rh := s.rerankTopK(r)
		for i := 0; i < nBase; i++ {
			if d := s.dists[i]; rh.Accepts(d) {
				rh.Push(int(s.cands[i]), d)
			}
		}
		s.ritems = rh.AppendSorted(s.ritems[:0])
		if cap(s.rids) < len(s.ritems) {
			s.rids = make([]int32, 0, len(s.ritems))
		}
		s.rids = s.rids[:0]
		for _, it := range s.ritems {
			s.rids = append(s.rids, int32(it.ID))
		}
		// Ascending ids keep the exact pass streaming memory forward, like
		// the main scan.
		slices.Sort(s.rids)
	} else {
		// Shortlist no bigger than the re-rank budget: exact-rank all of it.
		s.rids = append(s.rids[:0], s.cands[:nBase]...)
	}
	if cap(s.rdists) < len(s.rids) {
		s.rdists = make([]float64, len(s.rids))
	}
	s.rdists = s.rdists[:len(s.rids)]
	vec.SqDistToRows(s.rdists, sn.data.Data, sn.data.D, s.rids, q)
	for i, id := range s.rids {
		if d := s.rdists[i]; h.Accepts(d) {
			h.Push(int(id), d)
		}
	}
}
