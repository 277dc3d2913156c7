package core

import (
	"bilsh/internal/lshfunc"
	"bilsh/internal/mmap"
	"bilsh/internal/vec"
)

// snapshot is the read plane of the index: one immutable, consistent view
// published through Index.snap (an atomic pointer). Queries load the
// pointer once and then run entirely against the loaded view, so they
// never take a lock and never observe a half-applied mutation. Writers
// build the next view off to the side and publish it with a single atomic
// store (RCU-style); readers that loaded the previous snapshot finish on
// it unaffected.
//
// Everything reachable from a snapshot is immutable after publication,
// with two deliberate exceptions that carry their own synchronization:
// the active memtable (append-only, see memtable.go) and the tombstone
// bitset (atomic bit tests). docs/concurrency.md walks through the
// lifecycle.
type snapshot struct {
	// epoch increases by one on every publication (seal, first delete,
	// compact, SetQuantize, remap). Exposed via Index.Epoch for
	// observability and the stress tests' monotonicity assertion.
	epoch uint64
	opts  Options

	// Base plane: the built structures of index.go / serialize.go. The
	// float32 rows in data (heap or mapped) are always present; under
	// Options.Quantize an SQ8 code matrix (quant non-nil) is scanned in
	// their place, with data kept for the exact re-rank of the final
	// shortlist.
	data   *vec.Matrix
	quant  *vec.QuantizedMatrix // non-nil when the scan is quantized
	level1                      // the partitioner groupOf routes through
	groups []*group

	// rowOrder names the external id of every base row by its position:
	// the rows (data, quant, sketches), the postings, the dedup bitset and
	// the tombstones are indexed by position, and ids are translated only
	// where they cross the API (results, Delete, Vector, CandidateList) and
	// where they are written (WriteTo, WriteDiskTo). A heap-resident base
	// keeps its rows in level-1 leaf order (layout.go), so every candidate
	// of a query lies in its leaf's one block; a mapped or paged base keeps
	// the identity (the zero value).
	rowOrder

	// Hamming plane (Options.Metric == MetricHamming, nil otherwise): the
	// global hyperplane sketcher and the packed sketch of every base row.
	// Level-1 routing still runs on the float rows; level 2 and ranking run
	// entirely on the sketches. sketches non-nil is the query path's
	// metric discriminator.
	sketcher *lshfunc.Sketcher
	sketches *vec.BinaryMatrix

	// mapped roots the mmap backing data/quant/groups when the snapshot
	// was opened from a paged disk file (v3). The base-plane slices alias
	// mapped pages rather than heap memory, so the mapping must outlive
	// every reader of this snapshot: queries run entirely against one
	// loaded snapshot and end with runtime.KeepAlive(sn), which keeps this
	// field — and therefore the mapping's finalizer — at bay until the
	// last dereference. Swaps (Compact, durable remap) publish a
	// replacement snapshot and leave the old mapping to the GC or the
	// owning handle's Close; they never munmap in place.
	mapped *mmap.Mapping

	// Overlay plane: sealed segments (immutable), the active memtable
	// (concurrently readable), and the shared tombstone set.
	frozen  []*segment
	frozenN int // total rows across frozen segments
	mem     *memtable
	dead    *tombstones
}

// clone returns a shallow copy for copy-on-write publication. Callers
// replace the fields they change; shared fields stay shared.
func (sn *snapshot) clone() *snapshot {
	cp := *sn
	return &cp
}

// total is the number of ids in the dense id space (live or tombstoned).
func (sn *snapshot) total() int { return sn.data.N + sn.frozenN + sn.mem.len() }

// idCapacity bounds every id this snapshot can ever surface (the active
// memtable counts at full capacity); sizes the scratch visited array.
func (sn *snapshot) idCapacity() int {
	c := sn.data.N + sn.frozenN
	if sn.mem != nil {
		c += sn.mem.cap()
	}
	return c
}

// span returns the positions [lo, hi) that group gi's base rows occupy:
// its leaf's block when the rows are in leaf order, every base row
// otherwise. Group gi's postings all lie in it.
func (sn *snapshot) span(gi int) (lo, hi int) {
	if sn.ext == nil {
		return 0, sn.data.N
	}
	g := sn.groups[gi]
	return g.lo, g.lo + len(g.members)
}

// live is the number of non-tombstoned items.
func (sn *snapshot) live() int { return sn.total() - sn.dead.count() }

// hasOverlay reports whether any overlay rows exist (frozen or active).
func (sn *snapshot) hasOverlay() bool { return sn.frozenN > 0 || sn.mem.len() > 0 }

// isDeleted reports whether the row at position p is tombstoned.
func (sn *snapshot) isDeleted(p int) bool { return sn.dead.get(p) }

// row returns the vector at any position in the snapshot's dense id space.
func (sn *snapshot) row(p int) []float32 {
	if p < sn.data.N {
		return sn.data.Row(p)
	}
	off := p - sn.data.N
	for _, seg := range sn.frozen {
		if off < len(seg.rows) {
			return seg.rows[off]
		}
		off -= len(seg.rows)
	}
	return sn.mem.rows[off]
}

// overlayGroupCounts tallies overlay rows per level-1 group (Describe and
// GroupSize; O(overlay) and never on the query path).
func (sn *snapshot) overlayGroupCounts() []int {
	counts := make([]int, len(sn.groups))
	for _, seg := range sn.frozen {
		for _, gi := range seg.groupOf {
			counts[gi]++
		}
	}
	if sn.mem != nil {
		for _, gi := range sn.mem.groupOf[:sn.mem.len()] {
			counts[gi]++
		}
	}
	return counts
}

// addOverlayCandidates adds to the candidate set (union) the overlay ids
// whose bucket matches the lattice key, in every frozen segment and the
// active memtable.
func (sn *snapshot) addOverlayCandidates(s *scratch, st *QueryStats, gi, t int, key []byte) {
	memN := sn.mem.len()
	if sn.frozenN == 0 && memN == 0 {
		return
	}
	s.okey = appendOverlayKey(s.okey[:0], gi, t)
	s.okey = append(s.okey, key...)
	for _, seg := range sn.frozen {
		if ids := seg.buckets[string(s.okey)]; len(ids) > 0 {
			union(s, st, ids)
		}
	}
	if memN > 0 {
		if ids := sn.mem.bucket(s.okey); len(ids) > 0 {
			union(s, st, ids)
		}
	}
}
