package core

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"bilsh/internal/knn"
	"bilsh/internal/lattice"
	"bilsh/internal/lshfunc"
	"bilsh/internal/topk"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// This file pins the scratch-based, allocation-free query path to the
// implementation it replaced. The ref* functions below are verbatim copies
// of the pre-refactor gather / rank / plainShortListSize / probe
// generation (map-based dedup, string bucket keys, container/heap probe
// expansion), kept only as a test oracle. Under a fixed seed, every probe
// mode and lattice must produce identical results (ids AND distances) and
// identical deterministic stats fields.

// refGather is the old map-based candidate collection. Postings are
// positions in the snapshot's row order; it collects their external ids.
func refGather(ix *Index, q []float32, hierMinCount int) (map[int]struct{}, QueryStats) {
	gi := ix.GroupOf(q)
	sn := ix.loadSnap()
	g := sn.groups[gi]
	stats := QueryStats{Group: gi}
	set := make(map[int]struct{})
	proj := make([]float64, ix.opts.Params.M)

	add := func(ids []int) {
		for _, p := range ids {
			id := sn.extID(p)
			if ix.isDeleted(id) {
				continue
			}
			stats.Scanned++
			set[id] = struct{}{}
		}
	}

	for t := 0; t < ix.opts.Params.L; t++ {
		g.fam.Project(t, q, proj)
		switch ix.opts.ProbeMode {
		case ProbeSingle:
			code := g.lat.Decode(proj)
			stats.Probes++
			key := lattice.Key(code)
			add(g.tables[t].Bucket(key))
			add(ix.overlayBucket(gi, t, key))

		case ProbeMulti:
			var probes [][]int32
			switch lat := g.lat.(type) {
			case *lattice.ZM:
				probes = refZMProbes(lat, proj, ix.opts.Probes)
			case *lattice.E8:
				probes = refRingProbes(lat.Decode(proj), proj, ix.opts.Probes)
			}
			for _, code := range probes {
				stats.Probes++
				key := lattice.Key(code)
				add(g.tables[t].Bucket(key))
				add(ix.overlayBucket(gi, t, key))
			}

		case ProbeHierarchy:
			code := g.lat.Decode(proj)
			stats.Probes++
			var ids []int
			var level int
			if g.mortonH != nil {
				ids, level = g.mortonH[t].Candidates(code, hierMinCount)
			} else {
				ids, level = g.e8H[t].Candidates(code, hierMinCount)
			}
			if level > stats.HierarchyLevel {
				stats.HierarchyLevel = level
			}
			add(ids)
			add(ix.overlayBucket(gi, t, lattice.Key(code)))
		}
	}
	stats.Candidates = len(set)
	return set, stats
}

// refRank is the old per-candidate ranking over the dedup map.
func refRank(ix *Index, q []float32, cands map[int]struct{}, k int) knn.Result {
	h := topk.New(k)
	for id := range cands {
		d := vec.SqDist(ix.row(id), q)
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
	return r
}

func refQuery(ix *Index, q []float32, k int) (knn.Result, QueryStats) {
	minCount := ix.opts.HierMinCandidates
	if minCount <= 0 {
		minCount = 2 * k
	}
	cands, stats := refGather(ix, q, minCount)
	return refRank(ix, q, cands, k), stats
}

// refPlainShortListSize is the old standalone single-probe sizing pass.
func refPlainShortListSize(ix *Index, q []float32) int {
	gi := ix.GroupOf(q)
	sn := ix.loadSnap()
	g := sn.groups[gi]
	proj := make([]float64, ix.opts.Params.M)
	set := make(map[int]struct{})
	for t := 0; t < ix.opts.Params.L; t++ {
		g.fam.Project(t, q, proj)
		key := lattice.Key(g.lat.Decode(proj))
		for _, p := range g.tables[t].Bucket(key) {
			if id := sn.extID(p); !ix.isDeleted(id) {
				set[id] = struct{}{}
			}
		}
		for _, id := range ix.overlayBucket(gi, t, key) {
			if !ix.isDeleted(id) {
				set[id] = struct{}{}
			}
		}
	}
	return len(set)
}

// refQueryBatch is the old hierarchy batch protocol (median rule).
func refQueryBatch(ix *Index, queries *vec.Matrix, k int) ([]knn.Result, []QueryStats) {
	results := make([]knn.Result, queries.N)
	stats := make([]QueryStats, queries.N)
	if ix.opts.ProbeMode != ProbeHierarchy {
		for qi := 0; qi < queries.N; qi++ {
			results[qi], stats[qi] = refQuery(ix, queries.Row(qi), k)
		}
		return results, stats
	}
	sizes := make([]int, queries.N)
	for qi := 0; qi < queries.N; qi++ {
		sizes[qi] = refPlainShortListSize(ix, queries.Row(qi))
	}
	cp := append([]int(nil), sizes...)
	sort.Ints(cp)
	median := cp[len(cp)/2]
	if median < 1 {
		median = 1
	}
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		minCount := 1
		if sizes[qi] < median {
			minCount = median
		}
		cands, st := refGather(ix, q, minCount)
		results[qi] = refRank(ix, q, cands, k)
		stats[qi] = st
	}
	return results, stats
}

// refZMProbes is the old container/heap query-directed probing.
func refZMProbes(z *lattice.ZM, y []float64, count int) (probes [][]int32) {
	if count <= 0 {
		return nil
	}
	home := z.Decode(y)
	probes = make([][]int32, 0, count)
	probes = append(probes, home)
	if count == 1 {
		return probes
	}
	m := z.M()
	type pert struct {
		dim   int
		delta int32
		score float64
	}
	perts := make([]pert, 0, 2*m)
	for i := 0; i < m; i++ {
		frac := y[i] - float64(home[i])
		perts = append(perts,
			pert{dim: i, delta: -1, score: frac * frac},
			pert{dim: i, delta: +1, score: (1 - frac) * (1 - frac)},
		)
	}
	sort.Slice(perts, func(a, b int) bool { return perts[a].score < perts[b].score })
	total := 2 * m
	score := func(set []int) float64 {
		var s float64
		for _, j := range set {
			s += perts[j].score
		}
		return s
	}
	valid := func(set []int) bool {
		seen := make(map[int]bool, len(set))
		for _, j := range set {
			d := perts[j].dim
			if seen[d] {
				return false
			}
			seen[d] = true
		}
		return true
	}
	pq := &refSetHeap{}
	heap.Init(pq)
	heap.Push(pq, refProbeSet{set: []int{0}, score: perts[0].score})
	for len(probes) < count && pq.Len() > 0 {
		cur := heap.Pop(pq).(refProbeSet)
		if valid(cur.set) {
			code := make([]int32, m)
			copy(code, home)
			for _, j := range cur.set {
				code[perts[j].dim] += perts[j].delta
			}
			probes = append(probes, code)
		}
		last := cur.set[len(cur.set)-1]
		if last+1 < total {
			shifted := append(append([]int(nil), cur.set[:len(cur.set)-1]...), last+1)
			heap.Push(pq, refProbeSet{set: shifted, score: score(shifted)})
			expanded := append(append([]int(nil), cur.set...), last+1)
			heap.Push(pq, refProbeSet{set: expanded, score: score(expanded)})
		}
	}
	return probes
}

type refProbeSet struct {
	set   []int
	score float64
}

type refSetHeap []refProbeSet

func (h refSetHeap) Len() int            { return len(h) }
func (h refSetHeap) Less(i, j int) bool  { return h[i].score < h[j].score }
func (h refSetHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refSetHeap) Push(x interface{}) { *h = append(*h, x.(refProbeSet)) }
func (h *refSetHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refRingProbes is the old string-keyed E8 ring expansion.
func refRingProbes(home []int32, y []float64, count int) [][]int32 {
	if count <= 0 {
		return nil
	}
	probes := make([][]int32, 0, count)
	probes = append(probes, home)
	if count == 1 {
		return probes
	}
	codeLen := len(home)
	yy := make([]float64, codeLen)
	copy(yy, y)
	type cand struct {
		code []int32
		d2   float64
	}
	seen := map[string]bool{lattice.Key(home): true}
	frontier := [][]int32{home}
	for len(probes) < count && len(frontier) > 0 {
		var ring []cand
		for _, base := range frontier {
			for b := 0; b+8 <= codeLen; b += 8 {
				for _, mv := range lattice.MinVectors() {
					nb := make([]int32, codeLen)
					copy(nb, base)
					for j := 0; j < 8; j++ {
						nb[b+j] += mv[j]
					}
					key := lattice.Key(nb)
					if seen[key] {
						continue
					}
					seen[key] = true
					var d2 float64
					for j := 0; j < codeLen; j++ {
						diff := yy[j] - float64(nb[j])/2
						d2 += diff * diff
					}
					ring = append(ring, cand{code: nb, d2: d2})
				}
			}
		}
		sort.Slice(ring, func(a, b int) bool {
			if ring[a].d2 != ring[b].d2 {
				return ring[a].d2 < ring[b].d2
			}
			return lattice.Key(ring[a].code) < lattice.Key(ring[b].code)
		})
		frontier = frontier[:0]
		for _, c := range ring {
			if len(probes) < count {
				probes = append(probes, c.code)
			}
			frontier = append(frontier, c.code)
		}
	}
	return probes
}

// equivIndex builds a fixed-seed index plus queries, optionally with a
// dynamic overlay (inserts and deletes of both base and inserted rows).
func equivIndex(t *testing.T, lat LatticeKind, mode ProbeMode, dynamic bool) (*Index, *vec.Matrix) {
	t.Helper()
	const (
		n       = 900
		d       = 24
		queries = 60
	)
	rng := xrand.New(42)
	data := vec.NewMatrix(n, d)
	centers := vec.NewMatrix(12, d)
	for i := 0; i < centers.N; i++ {
		copy(centers.Row(i), rng.GaussianVec(d))
		vec.Scale(centers.Row(i), 3)
	}
	for i := 0; i < n; i++ {
		row := data.Row(i)
		copy(row, rng.GaussianVec(d))
		vec.Add(row, row, centers.Row(i%centers.N))
	}
	qs := vec.NewMatrix(queries, d)
	for i := 0; i < queries; i++ {
		copy(qs.Row(i), data.Row(rng.Intn(n)))
		noise := rng.GaussianVec(d)
		vec.Scale(noise, 0.15)
		vec.Add(qs.Row(i), qs.Row(i), noise)
	}
	opts := Options{
		Partitioner: PartitionRPTree,
		Groups:      6,
		Lattice:     lat,
		ProbeMode:   mode,
		Probes:      12,
		// Tiny memtable so the dynamic variants cover frozen segments as
		// well as the active memtable (40 inserts -> several seals).
		MemtableThreshold: 16,
	}
	ix, err := Build(data, opts, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if dynamic {
		for i := 0; i < 40; i++ {
			row := rng.GaussianVec(d)
			vec.Add(row, row, centers.Row(i%centers.N))
			if _, err := ix.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 30; i++ {
			ix.Delete(rng.Intn(n)) // base rows
		}
		for i := 0; i < 8; i++ {
			ix.Delete(n + rng.Intn(40)) // inserted rows
		}
	}
	return ix, qs
}

func sameStats(a, b QueryStats) bool {
	// Timings are wall-clock and intentionally excluded.
	return a.Group == b.Group && a.Candidates == b.Candidates &&
		a.Scanned == b.Scanned && a.Probes == b.Probes &&
		a.HierarchyLevel == b.HierarchyLevel
}

// TestQueryMatchesReference compares the scratch-based hot path against
// the pre-refactor implementation: same ids, same distances, same
// deterministic stats, for every lattice × probe mode, static and with a
// dynamic overlay.
func TestQueryMatchesReference(t *testing.T) {
	lattices := []LatticeKind{LatticeZM, LatticeE8}
	modes := []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy}
	for _, lat := range lattices {
		for _, mode := range modes {
			for _, dyn := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v/dynamic=%v", lat, mode, dyn)
				t.Run(name, func(t *testing.T) {
					ix, qs := equivIndex(t, lat, mode, dyn)
					const k = 7
					for qi := 0; qi < qs.N; qi++ {
						q := qs.Row(qi)
						got, gotSt := ix.Query(q, k)
						want, wantSt := refQuery(ix, q, k)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("query %d: result mismatch\n got %+v\nwant %+v", qi, got, want)
						}
						if !sameStats(gotSt, wantSt) {
							t.Fatalf("query %d: stats mismatch\n got %+v\nwant %+v", qi, gotSt, wantSt)
						}
					}
				})
			}
		}
	}
}

// TestCandidateListMatchesReference pins the external short-list entry
// point to the old sorted-map semantics.
func TestCandidateListMatchesReference(t *testing.T) {
	for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, qs := equivIndex(t, LatticeZM, mode, true)
			minCount := ix.opts.HierMinCandidates
			if minCount <= 0 {
				minCount = 2 * ix.opts.TuneK
			}
			for qi := 0; qi < qs.N; qi++ {
				q := qs.Row(qi)
				got, gotSt := ix.CandidateList(q)
				set, wantSt := refGather(ix, q, minCount)
				want := make([]int, 0, len(set))
				for id := range set {
					want = append(want, id)
				}
				sort.Ints(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: candidate list mismatch\n got %v\nwant %v", qi, got, want)
				}
				if !sameStats(gotSt, wantSt) {
					t.Fatalf("query %d: stats mismatch\n got %+v\nwant %+v", qi, gotSt, wantSt)
				}
			}
		})
	}
}

// TestQueryBatchMatchesReference pins the batch median rule (including the
// plain short-list sizing pass) and the parallel path to the reference.
func TestQueryBatchMatchesReference(t *testing.T) {
	for _, lat := range []LatticeKind{LatticeZM, LatticeE8} {
		t.Run(fmt.Sprintf("%v", lat), func(t *testing.T) {
			ix, qs := equivIndex(t, lat, ProbeHierarchy, true)
			const k = 5
			gotRes, gotSt := ix.QueryBatch(qs, k)
			wantRes, wantSt := refQueryBatch(ix, qs, k)
			for qi := range wantRes {
				if !reflect.DeepEqual(gotRes[qi], wantRes[qi]) {
					t.Fatalf("batch query %d: result mismatch\n got %+v\nwant %+v", qi, gotRes[qi], wantRes[qi])
				}
				if !sameStats(gotSt[qi], wantSt[qi]) {
					t.Fatalf("batch query %d: stats mismatch\n got %+v\nwant %+v", qi, gotSt[qi], wantSt[qi])
				}
			}
			parRes, parSt := ix.QueryBatchParallel(qs, k, 4)
			for qi := range wantRes {
				if !reflect.DeepEqual(parRes[qi], wantRes[qi]) {
					t.Fatalf("parallel query %d: result mismatch\n got %+v\nwant %+v", qi, parRes[qi], wantRes[qi])
				}
				if !sameStats(parSt[qi], wantSt[qi]) {
					t.Fatalf("parallel query %d: stats mismatch\n got %+v\nwant %+v", qi, parSt[qi], wantSt[qi])
				}
			}
		})
	}
}

// TestCompactEquivalentToFreshBuild pins Compact's strongest contract: an
// index that absorbed inserts and deletes and then compacted must be
// indistinguishable — identical ids, distances and deterministic stats —
// from an index freshly built over the surviving vectors.
//
// The setup uses PartitionNone with a fixed W: with no data-dependent
// level-1 partition and no tuner, the hash family drawn from a seed is
// independent of the data it indexes, so the compacted index and the
// fresh build share their hash functions exactly and equivalence is
// byte-identical, not statistical. (Compact renumbers survivors densely
// in original id order, which is exactly row order in the fresh build's
// matrix.)
func TestCompactEquivalentToFreshBuild(t *testing.T) {
	lattices := []LatticeKind{LatticeZM, LatticeE8}
	modes := []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy}
	for _, lat := range lattices {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%v/%v", lat, mode), func(t *testing.T) {
				const (
					n       = 600
					d       = 24
					inserts = 50
					k       = 7
				)
				rng := xrand.New(27)
				data := vec.NewMatrix(n, d)
				for i := 0; i < n; i++ {
					copy(data.Row(i), rng.GaussianVec(d))
					vec.Scale(data.Row(i), 2)
				}
				ins := vec.NewMatrix(inserts, d)
				for i := 0; i < inserts; i++ {
					copy(ins.Row(i), rng.GaussianVec(d))
					vec.Scale(ins.Row(i), 2)
				}
				qs := vec.NewMatrix(40, d)
				for i := 0; i < qs.N; i++ {
					copy(qs.Row(i), data.Row(rng.Intn(n)))
					noise := rng.GaussianVec(d)
					vec.Scale(noise, 0.2)
					vec.Add(qs.Row(i), qs.Row(i), noise)
				}

				opts := Options{
					Partitioner: PartitionNone,
					Lattice:     lat,
					ProbeMode:   mode,
					Probes:      10,
					Params:      lshfunc.Params{M: 8, L: 4, W: 2.5},
					// Small memtable: the workload seals frozen segments, so
					// Compact folds in every overlay representation.
					MemtableThreshold: 16,
				}
				ix, err := Build(data, opts, xrand.New(5))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < inserts; i++ {
					if _, err := ix.Insert(ins.Row(i)); err != nil {
						t.Fatal(err)
					}
				}
				deleted := make([]bool, n+inserts)
				for i := 0; i < 45; i++ {
					id := rng.Intn(n)
					ix.Delete(id)
					deleted[id] = true
				}
				for i := 0; i < 12; i++ {
					id := n + rng.Intn(inserts)
					ix.Delete(id)
					deleted[id] = true
				}
				if _, err := ix.Compact(); err != nil {
					t.Fatal(err)
				}

				// Survivors in original id order = Compact's dense renumbering.
				var rows [][]float32
				for id := 0; id < n+inserts; id++ {
					if deleted[id] {
						continue
					}
					if id < n {
						rows = append(rows, data.Row(id))
					} else {
						rows = append(rows, ins.Row(id-n))
					}
				}
				fresh, err := Build(vec.FromRows(rows), opts, xrand.New(5))
				if err != nil {
					t.Fatal(err)
				}

				for qi := 0; qi < qs.N; qi++ {
					q := qs.Row(qi)
					got, gotSt := ix.Query(q, k)
					want, wantSt := fresh.Query(q, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d: compacted differs from fresh build\n got %+v\nwant %+v", qi, got, want)
					}
					if !sameStats(gotSt, wantSt) {
						t.Fatalf("query %d: stats mismatch\n got %+v\nwant %+v", qi, gotSt, wantSt)
					}
				}
				gotRes, gotSt := ix.QueryBatch(qs, k)
				wantRes, wantSt := fresh.QueryBatch(qs, k)
				for qi := range wantRes {
					if !reflect.DeepEqual(gotRes[qi], wantRes[qi]) {
						t.Fatalf("batch query %d: compacted differs from fresh build\n got %+v\nwant %+v", qi, gotRes[qi], wantRes[qi])
					}
					if !sameStats(gotSt[qi], wantSt[qi]) {
						t.Fatalf("batch query %d: stats mismatch\n got %+v\nwant %+v", qi, gotSt[qi], wantSt[qi])
					}
				}
			})
		}
	}
}

// refGatherHamming is the Hamming gather as it was before every probe mode
// and both metrics went through one per-table key-block walk: the home key
// and then each flipped key looked up on its own with BucketBytes. It is
// kept verbatim but for the stage timers, the flip buffers, which were
// scratch fields, and the union (refAdd, then one drain, where the old
// rank sorted), as the oracle for the unified loop.
func refGatherHamming(sn *snapshot, q []float32, rp *resolvedPlan, mode ProbeMode, s *scratch) PlanStats {
	gi := sn.groupOf(q)
	g := sn.groups[gi]
	ps := PlanStats{
		QueryStats:     QueryStats{Group: gi},
		ResolvedTables: rp.tables,
		ResolvedProbes: rp.probes,
	}
	stats := &ps.QueryStats
	term := rp.term()
	s.begin(sn, term)
	s.cands = s.cands[:0]

	// One sketch serves every table; margins are computed unconditionally
	// (one store per plane) so single- and multiprobe share the code path.
	sn.sketcher.SketchWithMargins(q, s.qbits, s.qmarg)

	var ts termState
	stop := false
	var key []byte
	for t := 0; t < rp.tables && !stop; t++ {
		ps.TablesProbed = t + 1
		key = g.bsamp.AppendKey(key[:0], t, s.qbits)

		stats.Probes++
		refAdd(sn, s, stats, g.tables[t].BucketBytes(key))
		stop = term && rp.stop(&ts, len(s.cands))

		if mode == ProbeMulti && rp.probes > 1 && !stop {
			stop = refProbeHammingFlips(sn, s, stats, g, t, rp, term, &ts, key)
		}
	}
	ps.TerminatedEarly = stop
	stats.Candidates = len(s.cands)
	s.drain() // leaves s.cands ascending for rankHamming
	return ps
}

// refAdd is the test-and-append union the gather ran before mark-then-drain:
// each live id counts as scanned and is appended to s.cands when its bit
// in s.seen was clear, so len(s.cands) is the running distinct count.
func refAdd(sn *snapshot, s *scratch, stats *QueryStats, ids []int) {
	for _, id := range ids {
		if sn.isDeleted(id) {
			continue
		}
		stats.Scanned++
		w, m := uint32(id)>>6, uint64(1)<<(uint32(id)&63)
		if s.seen[w]&m == 0 {
			s.seen[w] |= m
			s.cands = append(s.cands, int32(id))
		}
	}
}

// refProbeHammingFlips runs table t's perturbation sequence: key bits sorted
// by ascending hyperplane-margin magnitude, probed as single flips and
// then pairs (in the deterministic order (0,1),(0,2),(1,2),(0,3),... that
// front-loads low-rank pairs), until rp.probes buckets have been probed,
// the 1+M+M(M−1)/2 sequence is exhausted, or a termination trigger fires.
// It reports whether a trigger fired.
func refProbeHammingFlips(sn *snapshot, s *scratch, stats *QueryStats, g *group, t int, rp *resolvedPlan, term bool, ts *termState, key []byte) bool {
	m := g.bsamp.M()
	pos := g.bsamp.Positions(t)
	bitOrder := make([]int, m)
	for j := range bitOrder {
		bitOrder[j] = j
	}
	// Insertion sort by |margin| (M is small and the sort must not
	// allocate; ties keep index order, so the sequence is deterministic).
	for a := 1; a < m; a++ {
		j := bitOrder[a]
		mj := math.Abs(s.qmarg[pos[j]])
		b := a - 1
		for b >= 0 && math.Abs(s.qmarg[pos[bitOrder[b]]]) > mj {
			bitOrder[b+1] = bitOrder[b]
			b--
		}
		bitOrder[b+1] = j
	}

	flipKey := make([]byte, g.bsamp.KeyLen())
	probed := 1 // the home bucket
	for a := 0; a < m && probed < rp.probes; a++ {
		j := bitOrder[a]
		copy(flipKey, key)
		flipKey[j>>3] ^= 1 << (uint(j) & 7)
		stats.Probes++
		probed++
		refAdd(sn, s, stats, g.tables[t].BucketBytes(flipKey))
		if term && rp.stop(ts, len(s.cands)) {
			return true
		}
	}
	for b := 1; b < m && probed < rp.probes; b++ {
		for a := 0; a < b && probed < rp.probes; a++ {
			ja, jb := bitOrder[a], bitOrder[b]
			copy(flipKey, key)
			flipKey[ja>>3] ^= 1 << (uint(ja) & 7)
			flipKey[jb>>3] ^= 1 << (uint(jb) & 7)
			stats.Probes++
			probed++
			refAdd(sn, s, stats, g.tables[t].BucketBytes(flipKey))
			if term && rp.stop(ts, len(s.cands)) {
				return true
			}
		}
	}
	return false
}

// TestHammingMatchesReference pins Hamming queries on the one probe loop to
// refGatherHamming: same ids and distances, same plan stats bar timings,
// for single and multi probe under default, probe-budget, plateau,
// candidate-cap and table-cap plans. At M = 8 the flip sequence holds
// 1+8+28 = 37 keys, so Probes 40 runs it out in every table.
func TestHammingMatchesReference(t *testing.T) {
	const k, m = 10, 8
	const seqLen = 1 + m + m*(m-1)/2
	plans := []Plan{
		{K: k},
		{K: k, Probes: 1},
		{K: k, Probes: 3},
		{K: k, Probes: 40},
		{K: k, StableProbes: 2},
		{K: k, MaxCandidates: 50},
		{K: k, Tables: 2},
	}
	for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, qs := hammingIndexM(t, mode, 24, m)
			sn := ix.loadSnap()
			early := 0
			for _, p := range plans {
				rp := sn.resolve(p)
				for qi := 0; qi < qs.N; qi++ {
					q := qs.Row(qi)
					got, gotPS := ix.QueryPlan(q, p)
					s := &scratch{}
					wantPS := refGatherHamming(sn, q, &rp, mode, s)
					want := sn.rankHamming(k, s)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("plan %+v query %d: result mismatch\n got %+v\nwant %+v", p, qi, got, want)
					}
					gotPS.Timings = StageTimings{}
					if gotPS != wantPS {
						t.Fatalf("plan %+v query %d: stats mismatch\n got %+v\nwant %+v", p, qi, gotPS, wantPS)
					}
					if gotPS.TerminatedEarly {
						early++
					}
					if mode == ProbeMulti && p.Probes == 40 && gotPS.Probes != rp.tables*seqLen {
						t.Fatalf("query %d: Probes 40 probed %d buckets, want the whole sequence %d × %d tables", qi, gotPS.Probes, seqLen, rp.tables)
					}
				}
			}
			if early == 0 {
				t.Fatal("no plan terminated early: the termination cases exercise nothing")
			}
		})
	}
}
