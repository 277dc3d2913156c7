// Package hierarchy implements the hierarchical LSH tables of Section
// IV-B2: query-adaptive bucket enlargement so that queries landing in
// sparse regions automatically search coarser (larger) buckets.
//
// Two constructions are provided, matching the paper:
//
//   - Morton: for the Z^M lattice, bucket codes are placed on a Morton
//     (Z-order) curve; the level-k ancestor groups of Eq. 8 are exactly the
//     shared-MSB prefix ranges of the sorted curve, so climbing the
//     hierarchy is a widening of a contiguous window.
//   - E8Tree: the E8 lattice admits no Morton representation, so the
//     hierarchy is stored explicitly as a linear array of buckets ordered
//     so each level's groups are contiguous, plus per-level indexes from
//     ancestor code (Eq. 10) to group range.
//
// Both support the same query operation: given the query's level-0 code,
// return the candidate ids of the smallest enclosing group holding at
// least minCount items.
package hierarchy

import (
	"fmt"
	"slices"

	"bilsh/internal/lattice"
	"bilsh/internal/lshtable"
	"bilsh/internal/morton"
)

// Hierarchy is the query-side interface shared by both constructions.
type Hierarchy interface {
	// Candidates returns item ids from the smallest group containing the
	// query code with at least minCount items (all items if no group
	// reaches minCount). The second result is the hierarchy level used.
	Candidates(code []int32, minCount int) ([]int, int)
	// AppendCandidates is Candidates appending int32 ids to dst, using s
	// for reusable key/code buffers — the allocation-free form the query
	// hot path calls with pooled scratch state.
	AppendCandidates(dst []int32, code []int32, minCount int, s *Scratch) ([]int32, int)
}

// Scratch carries the reusable buffers AppendCandidates encodes into. The
// zero value is ready to use; buffers grow on first use and are retained
// across queries.
type Scratch struct {
	Key  []byte  // Morton / lattice key buffer
	Code []int32 // ancestor code buffer
}

// ---------------------------------------------------------------------------
// Morton hierarchy (Z^M)

// Morton is the Z-order hierarchy over one LSH table.
type Morton struct {
	table  *lshtable.Table
	enc    *morton.Encoder
	curve  *morton.Curve
	prefix []int // prefix sums of bucket sizes in curve order
}

// NewMorton indexes table's buckets on a Morton curve. bits is the per-
// dimension key width (see morton.NewEncoder).
func NewMorton(table *lshtable.Table, m, bits int) (*Morton, error) {
	enc := morton.NewEncoder(m, bits)
	n := table.NumBuckets()
	keys := make([]string, n)
	vals := make([]int, n)
	for b := 0; b < n; b++ {
		key, _ := table.BucketByOrdinal(b)
		code := lattice.Unkey(key)
		if len(code) != m {
			return nil, fmt.Errorf("hierarchy: bucket code has %d dims, want %d", len(code), m)
		}
		keys[b] = enc.Encode(code)
		vals[b] = b
	}
	curve, err := morton.BuildCurve(enc, keys, vals)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	h := &Morton{table: table, enc: enc, curve: curve}
	h.prefix = make([]int, curve.Len()+1)
	for i := 0; i < curve.Len(); i++ {
		_, ids := table.BucketByOrdinal(curve.Value(i))
		h.prefix[i+1] = h.prefix[i] + len(ids)
	}
	return h, nil
}

// Candidates implements Hierarchy by climbing ancestor levels (widening
// Morton prefix ranges) until the group holds minCount items.
func (h *Morton) Candidates(code []int32, minCount int) ([]int, int) {
	var s Scratch
	ids32, level := h.AppendCandidates(nil, code, minCount, &s)
	return widen(ids32), level
}

// AppendCandidates implements Hierarchy without allocating: the Morton key
// is encoded into s.Key and the group's ids are appended to dst.
func (h *Morton) AppendCandidates(dst []int32, code []int32, minCount int, s *Scratch) ([]int32, int) {
	s.Key = h.enc.AppendEncode(s.Key[:0], code)
	for k := 0; k <= h.enc.Bits(); k++ {
		lo, hi := h.curve.PrefixRangeBytes(s.Key, h.enc.AncestorLevelToPrefixBits(k))
		if h.prefix[hi]-h.prefix[lo] >= minCount || k == h.enc.Bits() {
			return h.collectAppend(dst, lo, hi), k
		}
	}
	return dst, 0 // unreachable: k == Bits() always returns
}

// Window returns the ids of up to nBuckets buckets nearest the query code
// on the curve — the paper's "Morton codes before and after the insert
// position" probe, without climbing levels.
func (h *Morton) Window(code []int32, nBuckets int) []int {
	key := h.enc.Encode(code)
	var out []int
	for _, b := range h.curve.Window(key, nBuckets) {
		_, ids := h.table.BucketByOrdinal(b)
		out = append(out, ids...)
	}
	return out
}

// SharedMSB returns the number of most significant Morton bits the query
// shares with its nearest curve neighbor — the paper's signal for choosing
// a hierarchy level.
func (h *Morton) SharedMSB(code []int32) int {
	if h.curve.Len() == 0 {
		return 0
	}
	key := h.enc.Encode(code)
	pos := h.curve.Find(key)
	best := 0
	if pos < h.curve.Len() {
		if s := h.enc.SharedPrefixBits(key, h.curve.Key(pos)); s > best {
			best = s
		}
	}
	if pos > 0 {
		if s := h.enc.SharedPrefixBits(key, h.curve.Key(pos-1)); s > best {
			best = s
		}
	}
	return best
}

func (h *Morton) collectAppend(dst []int32, lo, hi int) []int32 {
	for i := lo; i < hi; i++ {
		_, ids := h.table.BucketByOrdinal(h.curve.Value(i))
		for _, id := range ids {
			dst = append(dst, int32(id))
		}
	}
	return dst
}

// widen converts collected int32 ids back to the []int form of the
// compatibility Candidates methods.
func widen(ids32 []int32) []int {
	out := make([]int, len(ids32))
	for i, id := range ids32 {
		out[i] = int(id)
	}
	return out
}

// ---------------------------------------------------------------------------
// E8 hierarchy

// maxE8Levels caps the explicit hierarchy depth; buckets that still differ
// at the cap are joined by a virtual root (the E8 ancestor iteration does
// not always unify distant codes, unlike the Morton prefix).
const maxE8Levels = 24

// E8Tree is the explicit lattice hierarchy: the linear bucket array plus
// one index per level mapping ancestor keys to contiguous group ranges
// (Section IV-B2b's "linear array along with an index hierarchy"): E8 has
// no Morton representation, so its ancestors are grouped explicitly.
type E8Tree struct {
	table  *lshtable.Table
	lat    *lattice.E8
	order  []int // bucket ordinals in hierarchy order
	prefix []int // prefix sums of bucket sizes in hierarchy order
	// levels[k] maps the level-k ancestor key to the [lo,hi) range of
	// `order` covered by that group; levels[0] is the buckets themselves.
	levels []map[string]groupRange
}

type groupRange struct{ lo, hi int }

// NewE8Tree builds the hierarchy for table's buckets under lat, whose
// Ancestor implements the Eq. 10 recursion.
func NewE8Tree(table *lshtable.Table, lat *lattice.E8) (*E8Tree, error) {
	n := table.NumBuckets()
	h := &E8Tree{table: table, lat: lat}
	if n == 0 {
		h.prefix = []int{0}
		return h, nil
	}

	// Ancestor keys per bucket per level, built from the level-0 codes.
	ancKeys := make([][]string, 0, maxE8Levels+1)
	codes := make([][]int32, n)
	level0 := make([]string, n)
	for b := 0; b < n; b++ {
		key, _ := table.BucketByOrdinal(b)
		codes[b] = lattice.Unkey(key)
		if len(codes[b]) != lat.CodeLen() {
			return nil, fmt.Errorf("hierarchy: bucket code has %d dims, want %d", len(codes[b]), lat.CodeLen())
		}
		level0[b] = key
	}
	ancKeys = append(ancKeys, level0)
	for k := 1; k <= maxE8Levels; k++ {
		keys := make([]string, n)
		unified := true
		for b := 0; b < n; b++ {
			keys[b] = lattice.Key(lat.Ancestor(codes[b], k))
			if keys[b] != keys[0] {
				unified = false
			}
		}
		ancKeys = append(ancKeys, keys)
		if unified {
			break // "the process is repeated until m", all codes equal
		}
	}
	top := len(ancKeys) - 1

	// Order buckets so every level's groups are contiguous: sort by the
	// ancestor-key tuple from the top level down.
	h.order = make([]int, n)
	for i := range h.order {
		h.order[i] = i
	}
	slices.SortFunc(h.order, func(x, y int) int {
		for k := top; k >= 0; k-- {
			switch {
			case ancKeys[k][x] < ancKeys[k][y]:
				return -1
			case ancKeys[k][x] > ancKeys[k][y]:
				return 1
			}
		}
		return 0
	})

	h.prefix = make([]int, n+1)
	for i, b := range h.order {
		_, ids := table.BucketByOrdinal(b)
		h.prefix[i+1] = h.prefix[i] + len(ids)
	}

	// Group ranges per level over the sorted order.
	h.levels = make([]map[string]groupRange, top+1)
	for k := 0; k <= top; k++ {
		idx := make(map[string]groupRange)
		start := 0
		for i := 1; i <= n; i++ {
			if i == n || ancKeys[k][h.order[i]] != ancKeys[k][h.order[start]] {
				idx[ancKeys[k][h.order[start]]] = groupRange{start, i}
				start = i
			}
		}
		h.levels[k] = idx
	}
	return h, nil
}

// Levels returns the number of explicit levels (including level 0).
func (h *E8Tree) Levels() int { return len(h.levels) }

// Candidates implements Hierarchy: climb the query's ancestor chain until
// a group with minCount items exists; the virtual root (all items) is the
// final fallback, covering queries whose codes match no stored group.
func (h *E8Tree) Candidates(code []int32, minCount int) ([]int, int) {
	var s Scratch
	ids32, level := h.AppendCandidates(nil, code, minCount, &s)
	return widen(ids32), level
}

// AppendCandidates implements Hierarchy without allocating: ancestor codes
// and their keys are built in s's reused buffers and the group's ids are
// appended to dst.
func (h *E8Tree) AppendCandidates(dst []int32, code []int32, minCount int, s *Scratch) ([]int32, int) {
	for k := 0; k < len(h.levels); k++ {
		s.Code = h.lat.AncestorInto(s.Code, code, k)
		s.Key = lattice.AppendKey(s.Key[:0], s.Code)
		g, ok := h.levels[k][string(s.Key)]
		if !ok {
			continue
		}
		if h.prefix[g.hi]-h.prefix[g.lo] >= minCount {
			return h.collectAppend(dst, g.lo, g.hi), k
		}
	}
	// Virtual root: distinct E8 ancestor chains can converge to different
	// fixed points and never unify, so the root is the explicit fallback.
	return h.collectAppend(dst, 0, len(h.order)), len(h.levels)
}

// Descend mirrors the paper's traversal: walk down from the top choosing
// the child whose ancestor code matches the query, and return the bucket
// group where the walk stops (no deeper matching child).
func (h *E8Tree) Descend(code []int32) ([]int, int) {
	if len(h.levels) == 0 {
		return nil, 0
	}
	for k := 0; k < len(h.levels); k++ {
		key := lattice.Key(h.lat.Ancestor(code, k))
		if g, ok := h.levels[k][key]; ok {
			return h.collect(g.lo, g.hi), k
		}
	}
	return h.collect(0, len(h.order)), len(h.levels)
}

func (h *E8Tree) collect(lo, hi int) []int {
	out := make([]int, 0, h.prefix[hi]-h.prefix[lo])
	for i := lo; i < hi; i++ {
		_, ids := h.table.BucketByOrdinal(h.order[i])
		out = append(out, ids...)
	}
	return out
}

func (h *E8Tree) collectAppend(dst []int32, lo, hi int) []int32 {
	for i := lo; i < hi; i++ {
		_, ids := h.table.BucketByOrdinal(h.order[i])
		for _, id := range ids {
			dst = append(dst, int32(id))
		}
	}
	return dst
}
