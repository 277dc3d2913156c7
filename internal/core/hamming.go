package core

import (
	"math"
	"runtime"
	"time"

	"bilsh/internal/knn"
	"bilsh/internal/topk"
	"bilsh/internal/vec"
)

// The Hamming read path. Level 1 routes on the float query exactly like
// the Euclidean path; level 2 sketches the query once (hyperplane signs
// plus per-plane margins), probes each table's bit-sampled bucket, and —
// under ProbeMulti — perturbs the key by flipping its least-confident bits
// first: a key bit whose hyperplane margin is near zero is the one most
// likely to disagree with a true neighbor's sketch (the query-directed
// flip order of the dynamic-query-modification literature). Candidates
// rank by exact Hamming distance over the packed sketches.

// gatherHamming is gatherPlan's MetricHamming counterpart. It honors the
// same resolved budgets (rp.tables, rp.probes) and early-termination
// triggers, so Plan semantics carry over unchanged.
func (sn *snapshot) gatherHamming(q []float32, rp *resolvedPlan, mode ProbeMode, s *scratch) PlanStats {
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

	sketchStart := time.Now()
	// One sketch serves every table; margins are computed unconditionally
	// (one store per plane) so single- and multiprobe share the code path.
	sn.sketcher.SketchWithMargins(q, s.qbits, s.qmarg)
	stats.Timings.Probe += time.Since(sketchStart)

	term := rp.term()
	var ts termState
	stop := false
	for t := 0; t < rp.tables && !stop; t++ {
		ps.TablesProbed = t + 1
		probeStart := time.Now()
		s.key = g.bsamp.AppendKey(s.key[:0], t, s.qbits)
		stats.Timings.Probe += time.Since(probeStart)

		scanStart := time.Now()
		stats.Probes++
		sn.addCandidates(s, stats, g.tables[t].BucketBytes(s.key))
		stop = term && rp.stop(&ts, len(s.cands))

		if mode == ProbeMulti && rp.probes > 1 && !stop {
			stop = sn.probeHammingFlips(s, stats, g, t, rp, term, &ts)
		}
		stats.Timings.Scan += time.Since(scanStart)
	}
	ps.TerminatedEarly = stop
	stats.Candidates = len(s.cands)
	// BucketBytes returns slices into snapshot-owned storage; candidate ids
	// are copied into scratch by now, but the probe loop itself must not
	// outlive the snapshot.
	runtime.KeepAlive(sn)
	return ps
}

// probeHammingFlips runs table t's perturbation sequence: key bits sorted
// by ascending hyperplane-margin magnitude, probed as single flips and
// then pairs (in the deterministic order (0,1),(0,2),(1,2),(0,3),... that
// front-loads low-rank pairs), until rp.probes buckets have been probed,
// the 1+M+M(M−1)/2 sequence is exhausted, or a termination trigger fires.
// It reports whether a trigger fired.
func (sn *snapshot) probeHammingFlips(s *scratch, stats *QueryStats, g *group, t int, rp *resolvedPlan, term bool, ts *termState) bool {
	m := g.bsamp.M()
	pos := g.bsamp.Positions(t)
	if cap(s.bitOrder) < m {
		s.bitOrder = make([]int, m)
	}
	s.bitOrder = s.bitOrder[:m]
	for j := range s.bitOrder {
		s.bitOrder[j] = j
	}
	// Insertion sort by |margin| (M is small and the sort must not
	// allocate; ties keep index order, so the sequence is deterministic).
	for a := 1; a < m; a++ {
		j := s.bitOrder[a]
		mj := math.Abs(s.qmarg[pos[j]])
		b := a - 1
		for b >= 0 && math.Abs(s.qmarg[pos[s.bitOrder[b]]]) > mj {
			s.bitOrder[b+1] = s.bitOrder[b]
			b--
		}
		s.bitOrder[b+1] = j
	}

	kl := g.bsamp.KeyLen()
	if cap(s.flipKey) < kl {
		s.flipKey = make([]byte, kl)
	}
	s.flipKey = s.flipKey[:kl]
	probed := 1 // the home bucket
	for a := 0; a < m && probed < rp.probes; a++ {
		j := s.bitOrder[a]
		copy(s.flipKey, s.key)
		s.flipKey[j>>3] ^= 1 << (uint(j) & 7)
		stats.Probes++
		probed++
		sn.addCandidates(s, stats, g.tables[t].BucketBytes(s.flipKey))
		if term && rp.stop(ts, len(s.cands)) {
			return true
		}
	}
	for b := 1; b < m && probed < rp.probes; b++ {
		for a := 0; a < b && probed < rp.probes; a++ {
			ja, jb := s.bitOrder[a], s.bitOrder[b]
			copy(s.flipKey, s.key)
			s.flipKey[ja>>3] ^= 1 << (uint(ja) & 7)
			s.flipKey[jb>>3] ^= 1 << (uint(jb) & 7)
			stats.Probes++
			probed++
			sn.addCandidates(s, stats, g.tables[t].BucketBytes(s.flipKey))
			if term && rp.stop(ts, len(s.cands)) {
				return true
			}
		}
	}
	return false
}

// rankHamming ranks the gathered candidates by exact Hamming distance to
// the query sketch left in s.qbits by gatherHamming. Like rankWith, the
// scan walks candidates in ascending id order and only the two result
// slices allocate.
func (sn *snapshot) rankHamming(k int, s *scratch) knn.Result {
	s.sortCands()
	h := s.topK(k)
	if cap(s.dists) < len(s.cands) {
		s.dists = make([]float64, len(s.cands))
	}
	s.dists = s.dists[:len(s.cands)]
	vec.HammingToRows(s.dists, sn.sketches, s.cands, s.qbits)
	for i, id := range s.cands {
		if d := s.dists[i]; h.Accepts(d) {
			h.Push(int(id), d)
		}
	}
	s.items = h.AppendSorted(s.items[:0])
	r := knn.Result{IDs: make([]int, len(s.items)), Dists: make([]float64, len(s.items))}
	for i, it := range s.items {
		r.IDs[i] = it.ID
		r.Dists[i] = it.Dist
	}
	runtime.KeepAlive(sn)
	return r
}

// exactHamming is ExactKNN's Hamming branch: sketch the query, linear-scan
// the packed sketch matrix. Hamming indexes never carry overlay rows, so
// the id space is exactly the base matrix.
func (sn *snapshot) exactHamming(q []float32, k int) knn.Result {
	qb := make([]uint64, sn.sketcher.Words())
	sn.sketcher.Sketch(q, qb)
	h := topk.New(k)
	for id := 0; id < sn.sketches.N; id++ {
		if sn.isDeleted(id) {
			continue
		}
		d := float64(vec.Hamming(sn.sketches.Row(id), qb))
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
	runtime.KeepAlive(sn)
	return r
}
