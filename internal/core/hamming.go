package core

import (
	"math"
	"runtime"

	"bilsh/internal/knn"
	"bilsh/internal/lshfunc"
	"bilsh/internal/topk"
	"bilsh/internal/vec"
)

// The Hamming read path. Level 1 routes on the float query exactly like
// the Euclidean path; level 2 sketches the query once (hyperplane signs
// plus per-plane margins) and gives the shared probe loop each table's
// bit-sampled key — under ProbeMulti followed by that key with its
// least-confident bits flipped first: a key bit whose hyperplane margin is
// near zero is the one most likely to disagree with a true neighbor's
// sketch (the query-directed flip order of the dynamic-query-modification
// literature). Candidates rank by exact Hamming distance over the packed
// sketches.

// flipKeys is the bit-sampling side of the probe seam (probeKeys): it
// fills s.keys with table t's key for the query sketch in s.qbits and then,
// while the block holds fewer than n keys, that key with one and then two
// of its bits flipped. Bits go least confident first — sorted by ascending
// hyperplane-margin magnitude — and pairs in the deterministic order
// (0,1),(0,2),(1,2),(0,3),... that front-loads low-rank pairs, so the
// block never exceeds the 1+M+M(M−1)/2 keys the sequence holds. It
// returns the key length.
func (s *scratch) flipKeys(bs *lshfunc.BitSampler, t, n int) int {
	kl := bs.KeyLen()
	s.keys = bs.AppendKey(s.keys[:0], t, s.qbits)
	if n <= 1 {
		return kl
	}
	m := bs.M()
	pos := bs.Positions(t)
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

	for a := 0; a < m && len(s.keys) < n*kl; a++ {
		s.keys = append(s.keys, s.keys[:kl]...)
		flipBit(s.keys[len(s.keys)-kl:], s.bitOrder[a])
	}
	for b := 1; b < m && len(s.keys) < n*kl; b++ {
		for a := 0; a < b && len(s.keys) < n*kl; a++ {
			s.keys = append(s.keys, s.keys[:kl]...)
			key := s.keys[len(s.keys)-kl:]
			flipBit(key, s.bitOrder[a])
			flipBit(key, s.bitOrder[b])
		}
	}
	return kl
}

// flipBit flips bit j of a packed bit-sampling key.
func flipBit(key []byte, j int) { key[j>>3] ^= 1 << (uint(j) & 7) }

// rankHamming ranks the drained candidates by exact Hamming distance to
// the query sketch left in s.qbits by gatherPlan. Like rankWith, the
// scan walks candidates in ascending position order, the heap breaks ties
// on external ids, and only the two result slices allocate.
func (sn *snapshot) rankHamming(k int, s *scratch) knn.Result {
	h := s.topK(k)
	if cap(s.dists) < len(s.cands) {
		s.dists = make([]float64, len(s.cands))
	}
	s.dists = s.dists[:len(s.cands)]
	vec.HammingToRows(s.dists, sn.sketches, s.cands, s.qbits)
	for i, p := range s.cands {
		if d := s.dists[i]; h.Accepts(d) {
			h.Push(sn.extID(int(p)), d)
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
	for p := 0; p < sn.sketches.N; p++ {
		if sn.isDeleted(p) {
			continue
		}
		d := float64(vec.Hamming(sn.sketches.Row(p), qb))
		if h.Accepts(d) {
			h.Push(sn.extID(p), d)
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
