package core

import (
	"math/bits"

	"bilsh/internal/hierarchy"
	"bilsh/internal/topk"
)

// scratch is the per-query reusable state that makes the read path
// allocation-free in steady state (the Section V design goal: the short
// list should be gathered and ranked at memory bandwidth, not at the
// allocator's pace). One scratch serves one query at a time:
//
//   - Query draws one from the index's sync.Pool and returns it;
//   - QueryBatch reuses a single scratch across the whole batch;
//   - QueryBatchParallel gives each worker goroutine its own.
//
// Candidate dedup is a two-level bitset: seen holds one bit per id, and
// bit w of seenSum[w/64] says seen[w] is non-zero. At 1 bit per id the set
// stays cache-resident where a per-id stamp array did not (7.5 KB at
// n = 60k, 125 KB at n = 1M), and walking it in word order yields the
// candidates already sorted by id — the order the row scan wants — so no
// sort runs (sortCands). The walk clears every bit it visits; a set that
// was gathered but never drained (the median rule's sizing pass) is
// cleared by the next begin from the candidate list, in O(candidates).
type scratch struct {
	// The probe seam's state (probeKeys); keys holds one table's
	// probe-key block.
	hashScratch

	ords      []int32  // bucket ordinals of the probe-key block (lshtable.LookupBlock)
	okey      []byte   // composed overlay key buffer (group+table prefix)
	cands     []int32  // deduplicated candidate ids: collection order until sortCands, ascending after
	seen      []uint64 // bit id set <=> id is in cands and not yet drained
	seenSum   []uint64 // bit w set <=> seen[w] != 0
	undrained bool     // cands' bits are still set in seen
	hierIDs   []int32  // raw hierarchy group ids before dedup

	hier hierarchy.Scratch

	heap  *topk.Heap
	items []topk.Item // reusable sorted-heap output
	dists []float64   // rank distance buffer

	// Hamming query state (see flipKeys): the packed query sketch,
	// per-plane margins and the per-table key-bit flip order (sorted by
	// ascending |margin|).
	qbits    []uint64
	qmarg    []float64
	bitOrder []int

	// Quantized-scan re-rank state (see rankBaseQuantized): a second
	// bounded heap selects the top k×RerankFactor approximate candidates,
	// whose ids and exact distances reuse these buffers.
	rheap  *topk.Heap
	ritems []topk.Item
	rids   []int32
	rdists []float64
}

// getScratch draws a scratch from the pool (the pool's zero value works:
// a nil entry becomes a fresh zero scratch whose buffers grow on first
// use).
func (ix *Index) getScratch() *scratch {
	s, _ := ix.scratchPool.Get().(*scratch)
	if s == nil {
		s = &scratch{}
	}
	return s
}

func (ix *Index) putScratch(s *scratch) { ix.scratchPool.Put(s) }

// begin readies the scratch for one query against the snapshot sn: sizes
// the sketch and dedup buffers and empties the candidate set. The bitset
// covers every id sn can ever surface — the active memtable counts at full
// capacity, so rows published after begin still land in bounds.
func (s *scratch) begin(sn *snapshot) {
	if sn.sketcher != nil {
		if w := sn.sketcher.Words(); cap(s.qbits) < w {
			s.qbits = make([]uint64, w)
		} else {
			s.qbits = s.qbits[:w]
		}
		if b := sn.sketcher.Bits(); cap(s.qmarg) < b {
			s.qmarg = make([]float64, b)
		} else {
			s.qmarg = s.qmarg[:b]
		}
	}
	if words := (sn.idCapacity() + 63) >> 6; len(s.seen) < words {
		set := make([]uint64, words+(words+63)>>6) // the set and its summary in one allocation
		s.seen, s.seenSum = set[:words:words], set[words:]
	} else if s.undrained {
		for _, id := range s.cands {
			w := uint32(id) >> 6
			s.seen[w] = 0
			s.seenSum[w>>6] = 0
		}
	}
	s.undrained = true
	s.cands = s.cands[:0]
}

// markSeen adds id to the dedup set and reports whether it was new.
func (s *scratch) markSeen(id int32) bool {
	w, m := uint32(id)>>6, uint64(1)<<(uint32(id)&63)
	if s.seen[w]&m != 0 {
		return false
	}
	s.seen[w] |= m
	s.seenSum[w>>6] |= 1 << (w & 63)
	return true
}

// sortCands rewrites s.cands in ascending id order by draining the dedup
// bitset (summary word -> set word -> set bit), leaving it empty for the
// next query (so a second call finds nothing and leaves the sorted list
// alone). Every consumer of the candidate list that needs it ordered calls
// this after gathering.
func (s *scratch) sortCands() {
	s.undrained = false
	n := 0
	for si, sum := range s.seenSum {
		for ; sum != 0; sum &= sum - 1 {
			w := si<<6 | bits.TrailingZeros64(sum)
			for word := s.seen[w]; word != 0; word &= word - 1 {
				s.cands[n] = int32(w<<6 | bits.TrailingZeros64(word))
				n++
			}
			s.seen[w] = 0
		}
		s.seenSum[si] = 0
	}
}

// topK returns the reusable bounded heap, re-created only when k changes.
func (s *scratch) topK(k int) *topk.Heap {
	if s.heap == nil || s.heap.K() != k {
		s.heap = topk.New(k)
	} else {
		s.heap.Reset()
	}
	return s.heap
}

// rerankTopK returns the reusable re-rank shortlist heap, re-created only
// when the shortlist size changes.
func (s *scratch) rerankTopK(r int) *topk.Heap {
	if s.rheap == nil || s.rheap.K() != r {
		s.rheap = topk.New(r)
	} else {
		s.rheap.Reset()
	}
	return s.rheap
}

// addCandidates marks and appends every live, not-yet-seen id, counting
// scanned (pre-dedup, post-tombstone) entries like the original map-based
// gather did. This is the single candidate-collection core shared by all
// probe modes and by the median rule's plain short-list sizing, so
// deleted-row filtering and overlay handling cannot diverge between them.
func (sn *snapshot) addCandidates(s *scratch, st *QueryStats, ids []int) {
	for _, id := range ids {
		if sn.isDeleted(id) {
			continue
		}
		st.Scanned++
		if s.markSeen(int32(id)) {
			s.cands = append(s.cands, int32(id))
		}
	}
}

// addCandidates32 is addCandidates for int32 id buffers (hierarchy output
// and overlay buckets).
func (sn *snapshot) addCandidates32(s *scratch, st *QueryStats, ids []int32) {
	for _, id := range ids {
		if sn.isDeleted(int(id)) {
			continue
		}
		st.Scanned++
		if s.markSeen(id) {
			s.cands = append(s.cands, id)
		}
	}
}
