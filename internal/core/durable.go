package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bilsh/internal/durable"
	"bilsh/internal/mmap"
)

// Durable dynamic index: the snapshot+overlay index of dynamic.go plus a
// write-ahead log and atomic checkpoints in a data directory, so that
// every acknowledged insert/delete survives a crash or restart.
//
// A data directory holds two files:
//
//	index.ckpt  generation-stamped checkpoint (the base index, paged layout)
//	wal.log     CRC32C-framed log of overlay mutations since the checkpoint
//
// Every mutation is appended to the log and applied to the in-memory
// index under one mutex, so log order always equals apply order — the
// invariant replay relies on to regenerate the exact same ids. With
// durable.FsyncAlways (the default) the record is fsynced before the call
// returns, so an acked write is durable; concurrent committers share one
// fsync (group commit).
//
// Checkpoint (and Compact, which on a durable index is a checkpoint)
// folds the overlay into a fresh base, streams it to index.ckpt.tmp,
// fsyncs, renames over index.ckpt, fsyncs the directory, and truncates
// the log. The checkpoint generation pairs the two files: after a crash
// between the rename and the truncation, recovery sees a log generation
// older than the checkpoint's and discards it — its records are already
// folded in. See docs/durability.md for the full lifecycle.

// Data directory file names. The checkpoint name is owned by
// internal/durable so the server's replica-shipping export and this
// package cannot drift.
const (
	ckptFileName = durable.CheckpointFileName
	walFileName  = "wal.log"
)

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Base seeds the directory on first open, before any checkpoint
	// exists; it must be clean (no pending overlay state). It is ignored
	// (and may be nil) once <dir>/index.ckpt exists.
	Base *Index
	// Fsync selects the WAL durability point (zero value FsyncAlways:
	// acked writes are never lost).
	Fsync durable.FsyncPolicy
	// FsyncInterval is the background sync cadence for FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// MemtableThreshold forwards the overlay seal threshold
	// (Options.MemtableThreshold); zero keeps the default.
	MemtableThreshold int
	// AutoCheckpointSegments, when positive, starts a background
	// Checkpoint whenever at least this many frozen overlay segments are
	// pending. It replaces Options.AutoCompactSegments, which OpenDurable
	// forces off: a bare compaction would remap ids out from under the
	// log.
	AutoCheckpointSegments int
	// Mmap serves the base plane straight off a read-only mapping of
	// index.ckpt instead of a heap copy: memory stays proportional to what
	// queries touch, not to the N×D payload. The checkpoint payload is the
	// paged disk layout (bilsh.Disk/3) either way, so Mmap only chooses how
	// it is opened, and either mode opens directories written by the
	// other. Every Checkpoint atomically remaps onto the new generation;
	// the previous mapping is retired to the GC once the last in-flight
	// query drops its snapshot.
	Mmap bool
	// Residency is the paging policy for mapped checkpoints (Mmap only).
	Residency ResidencyPolicy
}

// RecoveryInfo reports what OpenDurable found in the data directory.
type RecoveryInfo struct {
	// FromCheckpoint is true when state was loaded from index.ckpt
	// (false: the Base index seeded a fresh directory).
	FromCheckpoint bool
	// Gen is the recovered checkpoint generation.
	Gen uint64
	// Replayed is the number of WAL records re-applied.
	Replayed int
	// TruncatedBytes is the torn/corrupt WAL tail dropped (a crash
	// mid-append leaves one partial record; its write was never acked).
	TruncatedBytes int64
	// DiscardedWAL is true when the whole log was discarded: either its
	// generation predates the checkpoint (crash between checkpoint rename
	// and log truncation — every record was already folded in) or its
	// header was torn (crash inside log creation, before any append on it
	// could have been acked).
	DiscardedWAL bool
}

// DurableIndex is an Index whose mutations are write-ahead logged to a
// data directory. All reader methods are promoted from the embedded
// Index unchanged (reads never touch the log); Insert, Delete, Compact
// and CompactAsync are overridden with durable variants. Do not mutate
// the embedded Index directly — writes that bypass the log are lost on
// restart, and a direct Compact would corrupt the id space the log
// references.
type DurableIndex struct {
	*Index

	dir string
	wal *durable.WAL

	// Recovery describes what OpenDurable found; informational.
	Recovery RecoveryInfo

	// walMu orders WAL appends identically to index application (the
	// replay invariant) and serializes mutations with checkpoints.
	walMu sync.Mutex
	// gen is the current checkpoint generation, guarded by walMu.
	gen uint64
	// failed poisons the index after a half-applied checkpoint (new
	// checkpoint on disk, old log not truncated): appending to the old
	// log would write post-compact ids into a file recovery will discard.
	failed error

	autoCkpt int
	// ckptMu admits one checkpoint at a time (TryLock → ErrCompactBusy).
	ckptMu sync.Mutex

	// Mmap-mode state (nil/zero when DurableOptions.Mmap is off). mapping
	// and res track the generation currently mapped; both are replaced
	// under walMu by the post-checkpoint remap.
	useMmap bool
	resPol  ResidencyPolicy
	mapping *mmap.Mapping
	res     *residency
}

// OpenDurable opens (or seeds) the durable index in dir: it loads the
// newest checkpoint if one exists (falling back to o.Base for a fresh
// directory), replays the WAL tail — stopping cleanly at the first torn
// or corrupt record and truncating it away — and leaves the log open for
// appending. See DurableIndex.Recovery for what happened.
func OpenDurable(dir string, o DurableOptions) (*DurableIndex, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ckptPath := filepath.Join(dir, ckptFileName)
	walPath := filepath.Join(dir, walFileName)
	cfg := durable.WALConfig{Fsync: o.Fsync, Interval: o.FsyncInterval}

	var (
		ix      *Index
		info    RecoveryInfo
		mapping *mmap.Mapping
		res     *residency
	)
	gen, f, err := durable.OpenCheckpoint(ckptPath)
	switch {
	case err == nil:
		// The payload is a paged image: mapped under o.Mmap, heap-loaded
		// otherwise. Checkpoints written before the paged layout carry a
		// wire image, which only Upgrade reads.
		if format := sniffFormat(f, durable.CheckpointHeaderLen); strings.HasPrefix(format, "bilsh.Index/") {
			err = legacyFormat(format + " checkpoint payload")
		} else {
			ix, mapping, res, err = openDiskV3(f, durable.CheckpointHeaderLen,
				DiskOpenOptions{ForceHeap: !o.Mmap, Residency: o.Residency})
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("core: loading checkpoint %s: %w", ckptPath, err)
		}
		info.FromCheckpoint = true
	case os.IsNotExist(err):
		if o.Base == nil {
			return nil, fmt.Errorf("core: %s has no checkpoint and no base index was supplied", dir)
		}
		if err := o.Base.loadSnap().requireClean(); err != nil {
			return nil, fmt.Errorf("core: base index: %w", err)
		}
		ix, gen = o.Base, 1
	default:
		return nil, err
	}
	if ix.opts.Metric == MetricHamming {
		// Checkpoints write the paged layout and the WAL replays Inserts,
		// neither of which the static Hamming plane supports.
		return nil, fmt.Errorf("core: Hamming indexes do not support the durable tier; serve them read-only")
	}
	info.Gen = gen
	// A leftover .tmp is a checkpoint that never made it to the rename;
	// it is garbage by construction.
	os.Remove(ckptPath + ".tmp")

	// The durable layer owns compaction: force the inner auto-compact
	// trigger off before any replayed insert could fire it.
	ix.ConfigureDynamic(o.MemtableThreshold, 0)
	ix.mu.Lock()
	ix.opts.AutoCompactSegments = 0
	ix.mu.Unlock()

	d := &DurableIndex{Index: ix, dir: dir, gen: gen, autoCkpt: o.AutoCheckpointSegments,
		useMmap: o.Mmap, resPol: o.Residency, mapping: mapping, res: res}
	hdr := durable.Header{Gen: gen, BaseN: uint64(ix.N()), Dim: ix.Dim()}

	h, err := durable.ReadWALHeader(walPath)
	switch {
	case err == nil && h.Gen == gen:
		if h.Dim != ix.Dim() || h.BaseN != uint64(ix.N()) {
			return nil, fmt.Errorf("core: WAL %s (baseN=%d dim=%d) does not match the recovered index (n=%d dim=%d); wrong base index or data dir?",
				walPath, h.BaseN, h.Dim, ix.N(), ix.Dim())
		}
		_, stats, err := durable.ReplayWAL(walPath, d.applyRecord)
		if err != nil {
			return nil, fmt.Errorf("core: replaying %s: %w", walPath, err)
		}
		info.Replayed = stats.Records
		info.TruncatedBytes = stats.TruncatedBytes
		if d.wal, err = durable.OpenWAL(walPath, cfg); err != nil {
			return nil, err
		}
	case err == nil && h.Gen < gen:
		// Crash between checkpoint publication and WAL truncation: every
		// record in this log is already folded into the checkpoint.
		info.DiscardedWAL = true
		if d.wal, err = durable.CreateWAL(walPath, hdr, cfg); err != nil {
			return nil, err
		}
	case err == nil:
		return nil, fmt.Errorf("core: WAL generation %d is ahead of checkpoint generation %d in %s; data dir corrupt",
			h.Gen, gen, dir)
	case errors.Is(err, durable.ErrBadWALHeader):
		// A torn header can only be left by a crash inside log
		// creation/reset, before any append on the new log was acked.
		info.DiscardedWAL = true
		if d.wal, err = durable.CreateWAL(walPath, hdr, cfg); err != nil {
			return nil, err
		}
	case os.IsNotExist(err):
		if d.wal, err = durable.CreateWAL(walPath, hdr, cfg); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	d.Recovery = info
	return d, nil
}

// applyRecord re-applies one replayed mutation. Replay happens before the
// index is shared, in log order, so ids regenerate exactly.
func (d *DurableIndex) applyRecord(rec durable.Record) error {
	switch rec.Op {
	case durable.OpInsert:
		_, err := d.Index.Insert(rec.Vector)
		return err
	case durable.OpDelete:
		d.Index.Delete(rec.ID) // a no-op delete replays as a no-op
		return nil
	default:
		return fmt.Errorf("core: unknown WAL op %d", rec.Op)
	}
}

// Insert logs v and applies it; the returned id is durable per the fsync
// policy (with FsyncAlways, before Insert returns). Safe for concurrent
// use with queries and other mutators.
func (d *DurableIndex) Insert(v []float32) (int, error) {
	// Validate before logging so the log never holds a record the index
	// would refuse (Insert cannot fail after CheckVector passes).
	if err := CheckVector(d.Dim(), v); err != nil {
		return 0, err
	}
	d.walMu.Lock()
	if d.failed != nil {
		d.walMu.Unlock()
		return 0, d.failed
	}
	seq, err := d.wal.AppendInsert(v)
	if err != nil {
		d.walMu.Unlock()
		return 0, err
	}
	id, err := d.Index.Insert(v)
	frozen := len(d.Index.loadSnap().frozen)
	d.walMu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := d.wal.Commit(seq); err != nil {
		return 0, err
	}
	if d.autoCkpt > 0 && frozen >= d.autoCkpt {
		d.CheckpointAsync() //nolint:errcheck // busy just means one is running
	}
	return id, nil
}

// Delete tombstones id, logging the delete first. It reports whether the
// id was live; no-op deletes are not logged.
func (d *DurableIndex) Delete(id int) bool {
	d.walMu.Lock()
	if d.failed != nil {
		d.walMu.Unlock()
		return false
	}
	// Mutations serialize on walMu, so this pre-check cannot race another
	// writer; it keeps dead/absent ids out of the log.
	sn := d.Index.loadSnap()
	if id < 0 || id >= sn.total() || sn.isDeleted(id) {
		d.walMu.Unlock()
		return false
	}
	seq, err := d.wal.AppendDelete(id)
	if err != nil {
		// Not logged, so not applied: the caller's delete did not happen.
		d.walMu.Unlock()
		return false
	}
	ok := d.Index.Delete(id)
	d.walMu.Unlock()
	d.wal.Commit(seq) //nolint:errcheck // applied; sticky sync errors resurface on the next insert
	return ok
}

// Checkpoint folds the overlay into a fresh base (Compact), streams the
// clean snapshot atomically to <dir>/index.ckpt, and truncates the WAL.
// It returns the id remapping like Compact. Writers are blocked for the
// duration; readers keep running on published snapshots. At most one
// checkpoint runs at a time; concurrent calls fail fast with
// ErrCompactBusy.
func (d *DurableIndex) Checkpoint() ([]int, error) {
	if !d.ckptMu.TryLock() {
		return nil, ErrCompactBusy
	}
	defer d.ckptMu.Unlock()
	return d.checkpoint()
}

// CheckpointAsync starts a Checkpoint in the background, failing fast
// with ErrCompactBusy if one is already running. The id remapping is
// discarded (ids are unstable across compactions; see docs/concurrency.md).
func (d *DurableIndex) CheckpointAsync() error {
	if !d.ckptMu.TryLock() {
		return ErrCompactBusy
	}
	go func() {
		defer d.ckptMu.Unlock()
		d.checkpoint() //nolint:errcheck // reported via metrics
	}()
	return nil
}

// Compact on a durable index is a checkpoint: the fold must reach disk
// and truncate the log in the same critical section, or the log would
// keep referencing the pre-compact id space.
func (d *DurableIndex) Compact() ([]int, error) { return d.Checkpoint() }

// CompactAsync is CheckpointAsync (see Compact).
func (d *DurableIndex) CompactAsync() error { return d.CheckpointAsync() }

// checkpoint runs one checkpoint; caller holds ckptMu.
func (d *DurableIndex) checkpoint() ([]int, error) {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	if d.failed != nil {
		return nil, d.failed
	}
	// Make everything acked so far durable before folding it: if the
	// checkpoint below lands, the log is truncated and can no longer
	// deliver these records.
	if err := d.wal.Sync(); err != nil {
		return nil, err
	}
	mapping, err := d.Index.Compact()
	if err != nil {
		return nil, err
	}
	newGen := d.gen + 1
	ckptPath := filepath.Join(d.dir, ckptFileName)
	err = durable.WriteCheckpoint(ckptPath, newGen, func(f *os.File) error {
		_, werr := d.Index.WriteDiskTo(f)
		return werr
	})
	if err != nil {
		// Nothing was renamed (AtomicWrite cleans up its temp file), so
		// the old checkpoint+log pair is still consistent; keep going.
		return nil, err
	}
	hdr := durable.Header{Gen: newGen, BaseN: uint64(d.Index.N()), Dim: d.Dim()}
	if err := d.wal.Reset(hdr); err != nil {
		// The new checkpoint is on disk but the old log survived.
		// Recovery handles that (stale generation → discard), but this
		// process must not keep appending post-compact ids to a log that
		// recovery will throw away: poison all further mutations.
		d.failed = fmt.Errorf("core: checkpoint written but WAL truncation failed (restart to recover): %w", err)
		return nil, d.failed
	}
	d.gen = newGen
	if d.useMmap {
		// Swap the base plane onto a mapping of the generation just
		// written. Failure is not fatal: the heap base produced by Compact
		// is correct, only not mapped; the next checkpoint retries.
		if err := d.adoptMappedBase(ckptPath); err != nil {
			metRemapErrors.Inc()
		}
	}
	return mapping, nil
}

// adoptMappedBase maps the paged checkpoint at path and publishes a
// snapshot whose base plane aliases the mapping, releasing the heap (or
// previous-generation mapped) base. Caller holds walMu, so no mutation
// can interleave between the Compact that produced this checkpoint and
// the swap — the current snapshot's base plane and the file are
// byte-equivalent, and the overlay is empty. In-flight queries keep
// running on the old snapshot; its backing (heap or old mapping) is
// retired by the GC once they drain — the old mapping is never unmapped
// in place.
func (d *DurableIndex) adoptMappedBase(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	mapIx, m, res, err := openDiskV3(f, durable.CheckpointHeaderLen,
		DiskOpenOptions{Residency: d.resPol})
	if err != nil {
		return err
	}
	msn := mapIx.loadSnap()
	ix := d.Index
	ix.mu.Lock()
	cur := ix.loadSnap()
	next := cur.clone()
	next.data = msn.data
	next.quant = msn.quant
	next.tree = msn.tree
	next.km = msn.km
	next.groups = msn.groups
	next.mapped = m
	ix.publish(next)
	ix.mu.Unlock()
	d.mapping = m
	d.res = res
	return nil
}

// Mapped reports whether the index is currently serving off an mmap'd
// checkpoint.
func (d *DurableIndex) Mapped() bool {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	return d.mapping != nil && d.mapping.Mapped()
}

// Residency samples resident-set stats for the mapped checkpoint (zero
// value when not mapped).
func (d *DurableIndex) Residency() ResidencyStats {
	d.walMu.Lock()
	res := d.res
	d.walMu.Unlock()
	if res == nil {
		return ResidencyStats{}
	}
	return res.sample()
}

// EnforceResidency applies the residency policy now (see
// DiskIndex.EnforceResidency).
func (d *DurableIndex) EnforceResidency() ResidencyStats {
	d.walMu.Lock()
	res := d.res
	d.walMu.Unlock()
	if res == nil {
		return ResidencyStats{}
	}
	return res.enforce()
}

// Gen returns the current checkpoint generation.
func (d *DurableIndex) Gen() uint64 {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	return d.gen
}

// Close syncs and closes the WAL. The index stays queryable (reads never
// touch the log) but further mutations fail.
func (d *DurableIndex) Close() error {
	d.walMu.Lock()
	if d.failed == nil {
		d.failed = errors.New("core: durable index closed")
	}
	d.walMu.Unlock()
	return d.wal.Close()
}
