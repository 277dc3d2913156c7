package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"bilsh/internal/lshtable"
	"bilsh/internal/vec"
)

// Dynamic updates. The paper's evaluation is static, but a usable service
// needs inserts and deletes, so the index supports both as an overlay on
// top of the immutable base structures (see memtable.go and snapshot.go):
//
//   - Insert routes the new vector through level 1, writes it into the
//     active memtable and adds its id to per-(group, table) overlay buckets
//     that every probe consults alongside the immutable base tables. When
//     the memtable reaches Options.MemtableThreshold rows it is sealed into
//     a frozen segment and a fresh memtable is started.
//   - Delete tombstones an id (base or overlay); gathering and ranking skip
//     tombstoned ids.
//   - Compact folds every overlay row and tombstone into fresh base
//     structures built off to the side, then swaps them in with one
//     snapshot publication. Readers and writers keep running throughout.
//
// The bucket hierarchies (ProbeHierarchy) are built over the base tables
// only; inserted points are still found through their exact bucket code,
// but they do not participate in coarser hierarchy levels until Compact
// folds them in.
//
// Overlay state is intentionally not serialized: call Compact before
// WriteTo to persist a dynamic index (WriteTo refuses otherwise).

// ErrCompactBusy is returned when a Compact is requested while another one
// is still running; the in-flight compaction is unaffected.
var ErrCompactBusy = errors.New("core: compaction already in progress")

// ErrHammingStatic is returned by Insert and Compact on a MetricHamming
// index: the overlay and rebuild paths project through the per-group
// Euclidean hash family, which Hamming groups do not carry. Delete (a pure
// tombstone) still works; rebuild the index to fold deletes or add rows.
var ErrHammingStatic = errors.New("core: Hamming indexes are static; rebuild to add rows or fold deletes")

// buildTable is lshtable.BuildFlat, indirected so tests can inject a build
// failure into the compaction rebuild (every table build goes through
// group.buildTables) and verify the old index state survives intact.
var buildTable = lshtable.BuildFlat

// memtableCap returns the configured memtable capacity, defaulting when the
// option is unset (e.g. on an index loaded from disk, where dynamic knobs
// are not part of the wire format).
func (ix *Index) memtableCap() int {
	if ix.opts.MemtableThreshold > 0 {
		return ix.opts.MemtableThreshold
	}
	return defaultMemtableThreshold
}

// sealLocked freezes the active memtable (if any) into a new frozen
// segment and publishes a snapshot with a fresh memtable ready for the
// next insert. Caller holds ix.mu. The returned snapshot is the published
// one. autoCompact suppresses the compaction trigger when sealing on
// behalf of Compact itself.
func (ix *Index) sealLocked(sn *snapshot, autoCompact bool) *snapshot {
	next := sn.clone()
	if sn.mem != nil && sn.mem.len() > 0 {
		frozen := make([]*segment, len(sn.frozen), len(sn.frozen)+1)
		copy(frozen, sn.frozen)
		next.frozen = append(frozen, sn.mem.freeze())
		next.frozenN = sn.frozenN + sn.mem.len()
		metSeals.Inc()
	}
	idBase := next.data.N + next.frozenN
	capacity := ix.memtableCap()
	next.mem = newMemtable(idBase, capacity, ix.opts.Params.L)
	next.dead = next.dead.grown(idBase + capacity)
	ix.publish(next)
	if autoCompact && ix.opts.AutoCompactSegments > 0 &&
		len(next.frozen) >= ix.opts.AutoCompactSegments {
		ix.CompactAsync() // ErrCompactBusy just means one is already running
	}
	return next
}

// Insert adds v to the index and returns its id. The id is stable until
// the next Compact, which returns the id remapping. Insert is safe to call
// concurrently with queries and other mutators.
func (ix *Index) Insert(v []float32) (int, error) {
	if ix.opts.Metric == MetricHamming {
		return 0, ErrHammingStatic
	}
	if err := CheckVector(ix.Dim(), v); err != nil {
		return 0, err
	}
	start := time.Now()

	ix.mu.Lock()
	sn := ix.loadSnap()
	if sn.mem == nil || sn.mem.full() {
		sn = ix.sealLocked(sn, true)
	}
	m := sn.mem
	n := m.len()
	id := m.idBase + n

	gi := sn.groupOf(v)
	m.rows[n] = vecRow(vec.Clone(v))
	m.groupOf[n] = int32(gi)

	g := sn.groups[gi]
	for t := 0; t < ix.opts.Params.L; t++ {
		key := appendOverlayKey(ix.ins.keys[:0], gi, t)
		ix.ins.keys = g.appendKeys(key, t, v, 1, &ix.ins)
		m.addToBucket(ix.ins.keys, int32(id))
	}
	// Publish the row last: a reader that observes the new count also
	// observes the fully written row and buckets (atomic store/load pair).
	m.n.Store(int32(n + 1))
	ix.mu.Unlock()

	metInserts.Inc()
	metInsertSeconds.Observe(time.Since(start).Seconds())
	return id, nil
}

// Delete tombstones an id. It reports whether the id was live. Safe to
// call concurrently with queries and other mutators.
func (ix *Index) Delete(id int) bool {
	ix.mu.Lock()
	sn := ix.loadSnap()
	if id < 0 || id >= sn.total() || sn.isDeleted(id) {
		ix.mu.Unlock()
		metDeleteMisses.Inc()
		return false
	}
	if sn.dead == nil {
		// First delete on a fully static snapshot: attach a tombstone set.
		next := sn.clone()
		next.dead = newTombstones(sn.idCapacity())
		ix.publish(next)
		sn = next
	}
	sn.dead.set(id)
	ix.mu.Unlock()
	metDeletes.Inc()
	return true
}

// Len returns the number of live (non-deleted) items.
func (ix *Index) Len() int { return ix.loadSnap().live() }

// row returns the vector for any id in the dense id space (test hook; the
// query path uses the snapshot directly).
func (ix *Index) row(id int) []float32 { return ix.loadSnap().row(id) }

// isDeleted reports whether id is tombstoned (test hook).
func (ix *Index) isDeleted(id int) bool { return ix.loadSnap().isDeleted(id) }

// HierarchyStale reports whether inserted points are missing from the
// bucket hierarchies (only meaningful for ProbeHierarchy). Hierarchies
// cover the base plane only, so this is equivalent to "overlay rows
// exist"; Compact folds them in and clears the condition.
func (ix *Index) HierarchyStale() bool {
	return ix.opts.ProbeMode == ProbeHierarchy && ix.loadSnap().hasOverlay()
}

// overlayBucket returns the overlay ids sharing a bucket key, oldest
// first (equivalence-test oracle; the query path uses the snapshot's
// addOverlayCandidates).
func (ix *Index) overlayBucket(gi, table int, key string) []int {
	sn := ix.loadSnap()
	composed := string(appendOverlayKey(nil, gi, table)) + key
	var out []int
	for _, seg := range sn.frozen {
		for _, id := range seg.buckets[composed] {
			out = append(out, int(id))
		}
	}
	if sn.mem != nil {
		for _, id := range sn.mem.bucket([]byte(composed)) {
			out = append(out, int(id))
		}
	}
	return out
}

// Compact folds inserts and deletes into fresh base structures: a new data
// matrix, re-grouped members, rebuilt tables and hierarchies. Ids are
// remapped densely in insertion order over the surviving rows; the
// returned slice maps old ids to new ids (-1 for deleted).
//
// Compact never blocks readers and barely blocks writers: it seals the
// overlay under the index mutex, rebuilds off to the side with no locks
// held, then swaps the fresh base in under the mutex again, re-basing any
// rows inserted meanwhile. On error the index is untouched. At most one
// compaction runs at a time; concurrent calls fail fast with
// ErrCompactBusy.
func (ix *Index) Compact() ([]int, error) {
	if ix.opts.Metric == MetricHamming {
		return nil, ErrHammingStatic
	}
	if !ix.compactMu.TryLock() {
		return nil, ErrCompactBusy
	}
	defer ix.compactMu.Unlock()
	return ix.compactLocked()
}

// CompactAsync starts a Compact in the background and returns immediately.
// It fails fast with ErrCompactBusy if a compaction is already running;
// the background result is observable through metrics and the snapshot
// epoch. The id remapping is discarded, so it is only appropriate for
// callers that treat ids as unstable across compactions (see
// docs/concurrency.md).
func (ix *Index) CompactAsync() error {
	if ix.opts.Metric == MetricHamming {
		return ErrHammingStatic
	}
	if !ix.compactMu.TryLock() {
		return ErrCompactBusy
	}
	go func() {
		defer ix.compactMu.Unlock()
		ix.compactLocked() //nolint:errcheck // reported via metrics
	}()
	return nil
}

// compactLocked runs one compaction; caller holds compactMu.
func (ix *Index) compactLocked() ([]int, error) {
	start := time.Now()
	mapping, err := ix.compact()
	if err != nil {
		metCompactErrors.Inc()
		return nil, err
	}
	metCompacts.Inc()
	metCompactSeconds.Observe(time.Since(start).Seconds())
	return mapping, nil
}

func (ix *Index) compact() ([]int, error) {
	// Phase 1 (under mu, bounded work): seal the overlay so the source view
	// is fully immutable, and plan the id remap from the tombstones.
	ix.mu.Lock()
	src := ix.loadSnap()
	if !src.hasOverlay() && src.dead.count() == 0 {
		// Nothing to fold; identity mapping (disk-backed rows stay on disk).
		ix.mu.Unlock()
		m := make([]int, src.data.N)
		for i := range m {
			m[i] = i
		}
		return m, nil
	}
	if src.mem != nil && src.mem.len() > 0 {
		src = ix.sealLocked(src, false)
	}
	srcTotal := src.data.N + src.frozenN
	srcFrozen := len(src.frozen)
	mapping := make([]int, srcTotal)
	live := 0
	for id := 0; id < srcTotal; id++ {
		if src.isDeleted(id) {
			mapping[id] = -1
			continue
		}
		mapping[id] = live
		live++
	}
	ix.mu.Unlock()
	if live == 0 {
		return nil, fmt.Errorf("core: Compact would empty the index")
	}

	// Phase 2 (no locks): build the replacement base plane off to the side.
	// Concurrent queries keep hitting the old snapshot; concurrent inserts
	// land in the post-seal memtable and are re-based in phase 3.
	fresh := vec.NewMatrix(live, src.data.D)
	for id := 0; id < srcTotal; id++ {
		if mapping[id] < 0 {
			continue
		}
		copy(fresh.Row(mapping[id]), src.row(id))
	}

	// Re-group: membership is recomputed by routing, which also covers
	// inserted points, and per-group tables are rebuilt from scratch with
	// the existing hash families (projections are preserved, so queries
	// keep behaving identically for surviving points).
	members := make([][]int, len(src.groups))
	for id := 0; id < live; id++ {
		gi := src.groupOf(fresh.Row(id))
		members[gi] = append(members[gi], id)
	}
	groups := make([]*group, len(src.groups))
	opts := ix.opts
	err := forEachGroup(members, func(s *hashScratch, gi int) error {
		old := src.groups[gi]
		g := &group{members: members[gi], fam: old.fam, lat: old.lat, w: old.w}
		if err := g.buildTables(s, g.members, func(i int) []float32 { return fresh.Row(g.members[i]) }); err != nil {
			return fmt.Errorf("core: Compact group %d: %w", gi, err)
		}
		if opts.ProbeMode == ProbeHierarchy {
			if err := buildGroupHierarchies(g, opts); err != nil {
				return fmt.Errorf("core: group %d hierarchy: %w", gi, err)
			}
		}
		groups[gi] = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Requantize the surviving rows (still off-lock: one streaming pass
	// over the fresh matrix). Overlay inserts that only ranked exactly
	// before now join the quantized scan.
	quant := buildQuant(opts, fresh)

	// Phase 3 (under mu, bounded work): swap the fresh base in. Rows
	// inserted or segments sealed during phase 2 carry ids >= srcTotal;
	// shift them down by delta so the id space stays dense, and carry every
	// tombstone over (including deletes that raced the rebuild).
	ix.mu.Lock()
	cur := ix.loadSnap()
	delta := live - srcTotal

	next := &snapshot{
		data: fresh, quant: quant, tree: src.tree, km: src.km, groups: groups,
	}
	for _, seg := range cur.frozen[srcFrozen:] {
		next.frozen = append(next.frozen, seg.shifted(delta))
		next.frozenN += len(seg.rows)
	}
	if cur.mem != nil {
		next.mem = cur.mem.shifted(delta)
	}
	next.dead = newTombstones(next.idCapacity())
	for id := 0; id < srcTotal; id++ {
		if mapping[id] >= 0 && cur.isDeleted(id) {
			// Deleted while the rebuild ran: the row made it into the new
			// base, so tombstone it there and report it gone.
			next.dead.set(mapping[id])
			mapping[id] = -1
		}
	}
	for id := srcTotal; id < cur.total(); id++ {
		if cur.isDeleted(id) {
			next.dead.set(id + delta)
		}
	}
	ix.publish(next)
	ix.mu.Unlock()

	// The swap has just orphaned a whole base plane — rows, tables, codes.
	// Left to the pacer it is found only after another live heap's worth of
	// allocation, so the process's peak would be set by where a cycle
	// happens to land; collect it now, with no lock held.
	runtime.GC()
	return mapping, nil
}

// RebuildHierarchies reconstructs the bucket hierarchies over the current
// base tables. Compact builds hierarchies as part of its rebuild; calling
// this directly is only useful after external table surgery, and it cannot
// fold overlay inserts (those require Compact), so HierarchyStale persists
// while overlay rows are pending.
func (ix *Index) RebuildHierarchies() error {
	if ix.opts.ProbeMode != ProbeHierarchy {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	sn := ix.loadSnap()
	groups := make([]*group, len(sn.groups))
	for i, g := range sn.groups {
		cp := *g
		groups[i] = &cp
	}
	if err := buildHierarchies(groups, ix.opts); err != nil {
		return err
	}
	next := sn.clone()
	next.groups = groups
	ix.publish(next)
	return nil
}
