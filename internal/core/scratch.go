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
// The candidate union marks, then drains (the bitset form of the paper's
// clustered sort + compact): union ORs each live posting into seen, one
// bit per position (7.5 KB at n = 60k, 125 KB at n = 1M), and one drain
// per gather writes the candidates to cands in ascending position order —
// the order the row scan wants — and clears the set for the next gather.
// Every base posting a query walks lies in its leaf's block (snapshot.span),
// so the drain reads that block's words and the overlay's, not the whole
// set.
type scratch struct {
	// The probe seam's state (probeKeys); keys holds one table's
	// probe-key block.
	hashScratch

	ords     []int32     // bucket ordinals of the probe-key block (lshtable.LookupBlock)
	okey     []byte      // composed overlay key buffer (group+table prefix)
	cands    []int32     // the drained short list, ascending position
	seen     []uint64    // bit p set <=> position p gathered since the last drain
	lo, hi   int         // the base positions union can mark: the routed leaf's block
	base     int         // the first overlay position: the snapshot's base row count
	dead     *tombstones // the snapshot's tombstones, nil while none is set
	count    bool        // keep distinct: the plan arms early termination
	distinct int         // ids union newly set in seen, when count
	hierIDs  []int32     // raw hierarchy group ids before dedup

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

// begin readies the scratch for one gather against sn, keeping the
// running distinct count when count is set. The bitset covers every id sn
// can ever surface (the active memtable at full capacity), and the drain
// reads all of it until the gather narrows lo and hi to its leaf's block.
// Tombstones are read once: with none set, a racing delete orders after
// the query.
func (s *scratch) begin(sn *snapshot, count bool) {
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
	if words := (sn.idCapacity() + 63) >> 6; cap(s.seen) < words {
		s.seen = make([]uint64, words)
	} else {
		s.seen = s.seen[:words] // empty past any length: every gather drains
	}
	s.lo, s.hi, s.base = 0, sn.data.N, sn.data.N
	s.dead = sn.dead
	if s.dead.count() == 0 {
		s.dead = nil
	}
	s.count, s.distinct = count, 0
}

// union adds one bucket's postings ([]int base buckets, []int32 overlay
// buckets and hierarchy output) to the candidate set: it ORs each live id
// into seen and counts the live entries in st.Scanned. With no tombstone
// and no count, as on every default query, it tests nothing per entry;
// otherwise it skips dead ids and adds each newly set bit to s.distinct
// without a branch.
func union[T int | int32](s *scratch, st *QueryStats, ids []T) {
	seen, dead := s.seen, s.dead
	if dead == nil && !s.count {
		st.Scanned += len(ids)
		for _, id := range ids {
			seen[uint32(id)>>6] |= 1 << (uint32(id) & 63)
		}
		return
	}
	live, added := 0, 0
	for _, id := range ids {
		if dead.get(int(id)) {
			continue
		}
		live++
		w, b := uint32(id)>>6, uint32(id)&63
		old := seen[w]
		seen[w] = old | 1<<b
		added += int(^old >> b & 1)
	}
	st.Scanned += live
	s.distinct += added
}

// drain writes the candidate set to cands in ascending position order and
// clears it, reading the words of the base block [lo, hi) and of the
// overlay, where union can have set bits. A non-empty word stores its four
// lowest positions whatever it holds (1.7 on average at the probe
// workload's density) and n advances by its popcount, so no branch waits
// on a set bit; stores past n are overwritten or dropped.
func (s *scratch) drain() {
	blockEnd := (s.hi + 63) >> 6
	cands, n := s.drainWords(s.cands[:cap(s.cands)], 0, s.lo>>6, blockEnd)
	cands, n = s.drainWords(cands, n, max(blockEnd, s.base>>6), len(s.seen))
	s.cands = cands[:n]
}

// drainWords is drain over the words [from, to) of seen, appending to the
// n candidates cands holds; it returns the (possibly grown) buffer and
// the new count.
func (s *scratch) drainWords(cands []int32, n, from, to int) ([]int32, int) {
	for w := from; w < to; w++ {
		word := s.seen[w]
		if word == 0 {
			continue
		}
		s.seen[w] = 0
		if len(cands) < n+64 {
			grown := make([]int32, 2*n+64)
			copy(grown, cands[:n])
			cands = grown
		}
		dst, base := cands[n:n+64:n+64], int32(w<<6)
		n += bits.OnesCount64(word)
		dst[0], word = base|int32(bits.TrailingZeros64(word)), word&(word-1)
		dst[1], word = base|int32(bits.TrailingZeros64(word)), word&(word-1)
		dst[2], word = base|int32(bits.TrailingZeros64(word)), word&(word-1)
		dst[3], word = base|int32(bits.TrailingZeros64(word)), word&(word-1)
		for i := 4; word != 0; i++ {
			dst[i], word = base|int32(bits.TrailingZeros64(word)), word&(word-1)
		}
	}
	return cands, n
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
