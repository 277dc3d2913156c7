package multiprobe

import (
	"math"
	"math/bits"
	"slices"

	"bilsh/internal/lattice"
)

// Ring expansion: the E8 probe generator.

// ringRec is one ring code's sort record. Records are contiguous, so
// ordering a ring moves 16-byte values instead of chasing an index slice
// into the distance and code arenas.
type ringRec struct {
	d2bits uint64 // math.Float64bits(d2): d2 is a sum of squares, so the bit patterns order like the values
	idx    int32  // the code: its ordinal in ringCodes, or in a first ring block·240 + minimal vector
	bucket int32  // orderRing's distance bucket
}

const (
	// ringRetainCodes is the high-water mark, in codes of one ring, above
	// which a sequence that needed a second ring gives its dedup set and
	// arenas back instead of keeping them in the (pooled) scratch: one E8
	// second ring is 57 600 codes — a 1.8 MB arena and a map whose clear
	// costs its grown capacity on every later multi-ring call. First-ring
	// sequences never reach this check; their buffers are the steady
	// state of the index's own probe budget.
	ringRetainCodes = 4096

	// ringInsertionMax is the range length at which sortRing switches to
	// insertion sort.
	ringInsertionMax = 12
)

// hashCode folds a code to the 64-bit FNV-1a of its Key byte image — the
// ring dedup key. A 64-bit collision would drop one candidate bucket from
// the sequence; with at most a few thousand codes per ring expansion the
// probability is ~2^-40 per query, far below the approximation error LSH
// already accepts.
func hashCode(code []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	v := uint64(offset64)
	for _, c := range code {
		u := uint32(c)
		v = (v ^ uint64(u&0xff)) * prime64
		v = (v ^ uint64((u>>8)&0xff)) * prime64
		v = (v ^ uint64((u>>16)&0xff)) * prime64
		v = (v ^ uint64(u>>24)) * prime64
	}
	return v
}

// ringProbesInto generates probe codes around the decoded home bucket:
// neighbors differ in exactly one 8-dim block by one of the 240 minimal
// vectors (doubled representation), are ordered by distance from the
// query's projection (exact ties by lattice.CompareKeyOrder — a strict
// total order, since a ring's codes are distinct), and rings are expanded
// recursively until count probes exist or the frontier empties.
//
// The first ring expands the single home code by distinct non-zero
// minimal vectors in one block at a time, so its codes are pairwise
// distinct and differ from home by construction: it is generated without
// building, hashing or storing a code (a record names its neighbor by
// block and minimal vector, and only the emitted codes are written out),
// and the dedup set is built (home + ring one) only when a second ring
// follows. A ring that can satisfy the remaining count is the last one,
// so only the emitted prefix is put in order (orderRing); a ring that is
// emitted whole is also the next frontier and is ordered whole.
func ringProbesInto(s *Scratch, e *lattice.E8, y []float64, count int) {
	codeLen := e.CodeLen()
	s.reset(codeLen)
	if count <= 0 {
		return
	}
	home := e.DecodeInto(s.newProbe(), y)
	if count == 1 {
		return
	}
	// Pad y to the code length in lattice (real) units.
	if cap(s.yy) < codeLen {
		s.yy = make([]float64, codeLen)
	}
	s.yy = s.yy[:codeLen]
	clear(s.yy)
	copy(s.yy, y)

	s.frontier = append(s.frontier[:0], home...)
	rings := 0 // expanded so far
	for ; len(s.frontier) > 0; rings++ {
		if rings == 1 {
			// The frontier is the whole first ring; with home it is
			// everything generated so far.
			if s.seen == nil {
				s.seen = make(map[uint64]struct{})
			} else {
				clear(s.seen)
			}
			s.seen[hashCode(s.Probe(0))] = struct{}{}
			for off := 0; off < len(s.frontier); off += codeLen {
				s.seen[hashCode(s.frontier[off:off+codeLen])] = struct{}{}
			}
		}
		s.expandRing(rings > 0)

		// A ring that covers the remaining count is the last: nothing
		// feeds a next one, and the emptied frontier ends the loop.
		k, last := len(s.ringRecs), false
		if count-s.n <= k {
			k, last = count-s.n, true
		}
		s.orderRing(k)
		start := len(s.codes)
		s.codes = slices.Grow(s.codes, k*codeLen)[:start+k*codeLen]
		if s.ringLazy {
			home := s.frontier[:codeLen]
			for i, r := range s.ringRecs[:k] {
				neighborInto(s.codes[start+i*codeLen:], home, r.idx)
			}
		} else {
			for i, r := range s.ringRecs[:k] {
				copy(s.codes[start+i*codeLen:], s.ringCode(r.idx))
			}
		}
		s.n += k
		// The codes are read from the frontier above, so it is replaced
		// only now: by the emitted ring, which is the whole ring unless
		// it was the last.
		s.frontier = s.frontier[:0]
		if !last {
			s.frontier = append(s.frontier, s.codes[start:]...)
		}
	}
	if rings > 1 && (len(s.seen) > ringRetainCodes || cap(s.ringCodes) > ringRetainCodes*codeLen) {
		s.seen, s.frontier, s.ringCodes = nil, nil, nil
		s.ringRecs, s.ringSorted, s.ringEnds = nil, nil, nil
	}
}

// ringCode returns the i-th code of the current ring when the ring's
// codes are stored (ringLazy unset).
func (s *Scratch) ringCode(i int32) []int32 {
	return s.ringCodes[int(i)*s.codeLen : (int(i)+1)*s.codeLen]
}

// neighborInto writes to dst the code of first-ring record i: home with
// minimal vector i%240 added to block i/240.
func neighborInto(dst, home []int32, i int32) {
	dst = dst[:len(home)]
	for j, c := range home {
		dst[j] = c
	}
	at := uint32(i) / uint32(len(e8Mins)) * 8
	blk, mv := (*[8]int32)(dst[at:]), &e8Mins[uint32(i)%uint32(len(e8Mins))]
	for j, d := range mv {
		blk[j] += d
	}
}

// ringTerms is the number of values a coordinate's difference y_j − c_j/2
// can take over a frontier code's neighbors: a minimal vector moves c_j by
// δ ∈ {−2, …, 2} in doubled units.
const ringTerms = 5

// e8Off holds, per minimal vector, the offset of each coordinate's
// difference in a block's table (ringTerms per coordinate, δ = 0 in the
// middle).
var e8Off = func() (off [240][8]uint8) {
	for m, mv := range e8Mins {
		for j, d := range mv {
			off[m][j] = uint8(ringTerms*j + int(d) + ringTerms/2)
		}
	}
	return off
}()

// expandRing generates the neighbors of every frontier code, one ringRec
// each. With dedup set, codes are stored in ringCodes, and codes whose
// hash is already in s.seen are dropped and the rest recorded there.
// Without it — the first ring, whose frontier is the one home code —
// nothing is dropped, no code is stored (ringLazy), and record i names
// the block i/240 and the minimal vector i%240 (neighborInto).
//
// A neighbor's squared distance is Σ (y_j − c_j/2)² in coordinate order.
// Over one frontier code's neighbors a difference takes one of ringTerms
// values per coordinate, so those are computed once into a table, and a
// neighbor's d2 is the sum over the coordinates before its block (the
// prefix every neighbor made in that block shares), then its block's 8
// table entries squared, then the δ = 0 entries of the blocks after it:
// the same terms added in the same order as summing from zero, so d2
// keeps its bits. The table holds differences, not squares, so that each
// term is still squared where it is added: a compiler that fuses
// d2 += t*t into one multiply-add (arm64 does) fuses it here as it did in
// the sum from zero.
func (s *Scratch) expandRing(dedup bool) {
	codeLen, yy := s.codeLen, s.yy
	s.ringLazy = !dedup
	s.ringCodes = s.ringCodes[:0]
	s.ringRecs = s.ringRecs[:0]
	if cap(s.ringTable) < (ringTerms+1)*codeLen {
		s.ringTable = make([]float64, (ringTerms+1)*codeLen)
	}
	table := s.ringTable[:ringTerms*codeLen]
	zero := s.ringTable[ringTerms*codeLen : (ringTerms+1)*codeLen] // the δ = 0 differences, contiguous
	for base := 0; base < len(s.frontier); base += codeLen {
		from := s.frontier[base : base+codeLen]
		for j, c := range from {
			t := table[ringTerms*j:][:ringTerms]
			for k := range t {
				t[k] = yy[j] - float64(c+int32(k-ringTerms/2))/2
			}
			zero[j] = t[ringTerms/2]
		}
		var prefix float64
		for b := 0; b < codeLen; b += 8 {
			n := len(s.ringRecs)
			s.ringRecs = slices.Grow(s.ringRecs, len(e8Off))[:n+len(e8Off)]
			recs := (*[len(e8Off)]ringRec)(s.ringRecs[n:])
			ringDistances(recs, (*[ringTerms * 8]float64)(table[ringTerms*b:]), prefix, zero[b+8:], int32(n))
			if dedup {
				kept := n
				for m, rec := range recs {
					off := len(s.ringCodes)
					s.ringCodes = append(s.ringCodes, from...)
					nb := (*[8]int32)(s.ringCodes[off+b:])
					for j, d := range &e8Mins[m] {
						nb[j] += d
					}
					h := hashCode(s.ringCodes[off:])
					if _, dup := s.seen[h]; dup {
						s.ringCodes = s.ringCodes[:off]
						continue
					}
					s.seen[h] = struct{}{}
					rec.idx = int32(kept)
					s.ringRecs[kept] = rec
					kept++
				}
				s.ringRecs = s.ringRecs[:kept]
			}
			for _, z := range zero[b : b+8] {
				prefix += z * z
			}
		}
	}
}

// ringDistances writes the records of the 240 neighbors one block of a
// code makes, numbered from idx0: prefix is the distance sum over the
// coordinates before the block, blk the block's table of differences and
// later the δ = 0 differences of the coordinates after it.
func ringDistances(recs *[240]ringRec, blk *[ringTerms * 8]float64, prefix float64, later []float64, idx0 int32) {
	for m := range recs {
		o := &e8Off[m]
		t := blk[o[0]]
		d2 := prefix + t*t
		t = blk[o[1]]
		d2 += t * t
		t = blk[o[2]]
		d2 += t * t
		t = blk[o[3]]
		d2 += t * t
		t = blk[o[4]]
		d2 += t * t
		t = blk[o[5]]
		d2 += t * t
		t = blk[o[6]]
		d2 += t * t
		t = blk[o[7]]
		d2 += t * t
		for _, z := range later {
			d2 += z * z
		}
		recs[m] = ringRec{d2bits: math.Float64bits(d2), idx: idx0 + int32(m)}
	}
}

// orderRing reorders ringRecs so that its first k records are the ring's k
// smallest, in ring order; the rest is left in no particular order.
//
// Distances within a ring spread over a narrow interval, so the records
// are first dealt into as many equal-width distance buckets as there are
// records — counting passes without a data-dependent branch, where a
// comparison sort of a ring mispredicts about every other comparison —
// and then only the buckets that reach into the first k are sorted, each
// by sortRing. The bucket index is monotone in the distance, so records it
// separates are already in ring order and the result does not depend on
// the bucketing; records it does not separate (exact ties, a cluster, one
// outlier stretching the interval) are left to the comparison sort, which
// is also all of the work when the interval is empty or not finite.
func (s *Scratch) orderRing(k int) {
	r := s.ringRecs
	n := len(r)
	depth := 2 * bits.Len(uint(n)) // sortRing's recursion budget
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, rec := range r {
		lo, hi = min(lo, rec.d2bits), max(hi, rec.d2bits)
	}
	least := math.Float64frombits(lo)
	scale := float64(n) / (math.Float64frombits(hi) - least)
	if n <= ringInsertionMax || !(scale > 0 && scale <= math.MaxFloat64) {
		s.sortRing(r, depth)
		return
	}

	if cap(s.ringEnds) < n {
		s.ringEnds = make([]int32, n)
	}
	if cap(s.ringSorted) < n {
		s.ringSorted = make([]ringRec, n)
	}
	ends, out := s.ringEnds[:n], s.ringSorted[:n]
	// ends[b] counts bucket b, then is its start, then (once the scatter
	// has filled the bucket) its end.
	clear(ends)
	for i := range r {
		b := min(int((math.Float64frombits(r[i].d2bits)-least)*scale), n-1)
		r[i].bucket = int32(b)
		ends[b]++
	}
	var sum int32
	for b, c := range ends {
		ends[b] = sum
		sum += c
	}
	for _, rec := range r {
		out[ends[rec.bucket]] = rec
		ends[rec.bucket]++
	}
	for b, start := 0, 0; start < k; b++ {
		end := int(ends[b])
		if end-start > 1 {
			s.sortRing(out[start:end], depth)
		}
		start = end
	}
	s.ringRecs, s.ringSorted = out, r
}

// ringLess is the ring order: distance ascending, exact ties by the codes'
// Key byte order. The tie arm is a call of its own so that the common arm
// inlines into the sort loops.
func (s *Scratch) ringLess(a, b ringRec) bool {
	if a.d2bits != b.d2bits {
		return a.d2bits < b.d2bits
	}
	return s.ringTieLess(a.idx, b.idx)
}

// ringTieLess orders two records of equal distance by their codes. Only
// exact ties get here. A first-ring code is not stored, but it is home
// plus one minimal vector in one block, so the first coordinate where two
// of them differ is found from the two vectors: inside the block when they
// share it, else in the earlier of the two blocks, where the other code
// still equals home.
func (s *Scratch) ringTieLess(a, b int32) bool {
	if !s.ringLazy {
		return lattice.CompareKeyOrder(s.ringCode(a), s.ringCode(b)) < 0
	}
	const nm = int32(len(e8Mins))
	blk, ma, mb := a/nm, &e8Mins[a%nm], &e8Mins[b%nm]
	switch bb := b / nm; {
	case blk < bb:
		mb = &e8Zero
	case blk > bb:
		blk, ma = bb, &e8Zero
	}
	for j, c := range (*[8]int32)(s.frontier[blk*8:]) {
		if ma[j] != mb[j] {
			// lattice.CompareKeyOrder's order on one coordinate.
			return bits.ReverseBytes32(uint32(c+ma[j])) < bits.ReverseBytes32(uint32(c+mb[j]))
		}
	}
	return false // the same code twice: never in one ring
}

// e8Zero is the block of a first-ring code that no minimal vector moved.
var e8Zero [8]int32

// sortRing sorts r in ring order: a median-of-three quicksort over the
// contiguous records with the comparison inlined, insertion sort below
// ringInsertionMax, and the library sort once depth partitions have not
// been enough.
func (s *Scratch) sortRing(r []ringRec, depth int) {
	for len(r) > ringInsertionMax {
		if depth == 0 {
			slices.SortFunc(r, func(a, b ringRec) int {
				if s.ringLess(a, b) {
					return -1
				}
				return 1 // ring codes are distinct: never equal
			})
			return
		}
		depth--
		p := s.partitionRing(r)
		s.sortRing(r[:p], depth)
		r = r[p+1:]
	}
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && s.ringLess(r[j], r[j-1]); j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// partitionRing partitions r (len >= 3) around its median-of-three pivot
// and returns the pivot's final position p: r[:p] orders before r[p],
// r[p+1:] after. The median's neighbors r[0] and r[len-1] bound both
// scans, so neither needs an index check.
func (s *Scratch) partitionRing(r []ringRec) int {
	hi := len(r) - 1
	mid := hi / 2
	if s.ringLess(r[mid], r[0]) {
		r[mid], r[0] = r[0], r[mid]
	}
	if s.ringLess(r[hi], r[0]) {
		r[hi], r[0] = r[0], r[hi]
	}
	if s.ringLess(r[hi], r[mid]) {
		r[hi], r[mid] = r[mid], r[hi]
	}
	r[mid], r[hi-1] = r[hi-1], r[mid]
	pivot := r[hi-1]
	i, j := 0, hi-1
	for {
		for i++; s.ringLess(r[i], pivot); i++ {
		}
		for j--; s.ringLess(pivot, r[j]); j-- {
		}
		if i >= j {
			break
		}
		r[i], r[j] = r[j], r[i]
	}
	r[i], r[hi-1] = r[hi-1], r[i]
	return i
}
