package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"bilsh/internal/durable"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

func durableOpts() Options {
	return Options{Partitioner: PartitionNone, Params: lshfunc.Params{M: 4, L: 3, W: 4}}
}

// durableBase builds the deterministic base index the durable tests seed
// their data dirs with (Build is deterministic for a fixed seed, so every
// call returns an identical index — including hash families).
func durableBase(t *testing.T) (*Index, *vec.Matrix) {
	t.Helper()
	data := testData(t, 200, 8, 61)
	ix, err := Build(data, durableOpts(), xrand.New(62))
	if err != nil {
		t.Fatal(err)
	}
	return ix, data
}

// applyOps drives the same mutation sequence against any mutable index.
func applyOps(t *testing.T, ins func([]float32) (int, error), del func(int) bool, data *vec.Matrix) []int {
	t.Helper()
	var ids []int
	for i := 0; i < 30; i++ {
		v := vec.Clone(data.Row(i % data.N))
		v[0] += float32(i) * 0.01
		id, err := ins(v)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range []int{3, 7, ids[0], ids[5]} {
		if !del(id) {
			t.Fatalf("delete of live id %d reported false", id)
		}
	}
	return ids
}

func TestDurableSurvivesCrash(t *testing.T) {
	base, data := durableBase(t)
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Base: base, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if d.Recovery.FromCheckpoint || d.Recovery.Gen != 1 {
		t.Fatalf("fresh dir recovery %+v", d.Recovery)
	}
	applyOps(t, d.Insert, d.Delete, data)
	wantLen := d.Len()
	wantRes, _ := d.Query(data.Row(0), 5)

	// Crash: no Close, no checkpoint. Reopen against a fresh copy of the
	// base (the one above was mutated through the durable wrapper).
	base2, _ := durableBase(t)
	d2, err := OpenDurable(dir, DurableOptions{Base: base2, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Recovery.Replayed != 34 { // 30 inserts + 4 deletes
		t.Fatalf("replayed %d records, want 34 (%+v)", d2.Recovery.Replayed, d2.Recovery)
	}
	if d2.Len() != wantLen {
		t.Fatalf("recovered Len %d, want %d", d2.Len(), wantLen)
	}
	gotRes, _ := d2.Query(data.Row(0), 5)
	if len(gotRes.IDs) != len(wantRes.IDs) {
		t.Fatalf("recovered query returned %v, want %v", gotRes.IDs, wantRes.IDs)
	}
	for i := range wantRes.IDs {
		if gotRes.IDs[i] != wantRes.IDs[i] {
			t.Fatalf("recovered query diverged: %v vs %v", gotRes.IDs, wantRes.IDs)
		}
	}
}

// TestDurableRecoveryByteIdentical is the strongest equivalence check:
// compacting the crash-recovered index must produce byte-identical
// serialization to building fresh, applying the same ops directly, and
// compacting. Both paths see the same rows in the same order with the
// same hash families, and Compact is deterministic.
func TestDurableRecoveryByteIdentical(t *testing.T) {
	base, data := durableBase(t)
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Base: base, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d.Insert, d.Delete, data)
	// Crash; recover; fold.
	base2, _ := durableBase(t)
	d2, err := OpenDurable(dir, DurableOptions{Base: base2, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var recovered bytes.Buffer
	if _, err := d2.WriteTo(&recovered); err != nil {
		t.Fatal(err)
	}

	// The same ops applied directly to a fresh build, then compacted.
	ref, _ := durableBase(t)
	applyOps(t, ref.Insert, ref.Delete, data)
	if _, err := ref.Compact(); err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if _, err := ref.WriteTo(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recovered.Bytes(), direct.Bytes()) {
		t.Fatalf("recovered+compacted index (%d bytes) differs from direct+compacted (%d bytes)",
			recovered.Len(), direct.Len())
	}
}

func TestDurableCheckpointTruncatesWAL(t *testing.T) {
	base, data := durableBase(t)
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Base: base, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d.Insert, d.Delete, data)
	walPath := filepath.Join(dir, walFileName)
	before, _ := os.Stat(walPath)
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("checkpoint did not truncate the WAL (%d -> %d bytes)", before.Size(), after.Size())
	}
	if d.Gen() != 2 {
		t.Fatalf("generation after checkpoint = %d, want 2", d.Gen())
	}
	wantLen := d.Len()

	// Post-checkpoint mutations land in the new-generation log.
	probe := vec.Clone(data.Row(0))
	probe[0] += 0.001
	id, err := d.Insert(probe)
	if err != nil {
		t.Fatal(err)
	}
	// Crash and recover purely from the checkpoint + short WAL; the base
	// index is no longer needed.
	d2, err := OpenDurable(dir, DurableOptions{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.Recovery.FromCheckpoint || d2.Recovery.Gen != 2 || d2.Recovery.Replayed != 1 {
		t.Fatalf("recovery %+v, want checkpoint gen 2 with 1 replayed record", d2.Recovery)
	}
	if d2.Len() != wantLen+1 {
		t.Fatalf("recovered Len %d, want %d", d2.Len(), wantLen+1)
	}
	res, _ := d2.Query(probe, 1)
	if len(res.IDs) == 0 || res.IDs[0] != id {
		t.Fatalf("post-checkpoint insert lost: query returned %v, want id %d first", res.IDs, id)
	}
}

// TestDurableStaleWALDiscarded simulates the crash window between the
// checkpoint rename and the WAL truncation: the old-generation log is
// still on disk, but all its records are folded into the checkpoint.
// Replaying it would double-apply; recovery must discard it instead.
func TestDurableStaleWALDiscarded(t *testing.T) {
	base, data := durableBase(t)
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Base: base, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d.Insert, d.Delete, data)
	walPath := filepath.Join(dir, walFileName)
	staleWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantLen := d.Len()
	// Put the pre-checkpoint (gen 1) log back, as if the truncation never
	// reached disk, and crash.
	if err := os.WriteFile(walPath, staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, DurableOptions{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.Recovery.DiscardedWAL || d2.Recovery.Replayed != 0 {
		t.Fatalf("recovery %+v, want the stale WAL discarded with nothing replayed", d2.Recovery)
	}
	if d2.Len() != wantLen {
		t.Fatalf("Len %d after discarding stale WAL, want %d", d2.Len(), wantLen)
	}
}

func TestDurableTornTailDropped(t *testing.T) {
	base, data := durableBase(t)
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Base: base, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ids := applyOps(t, d.Insert, d.Delete, data)
	wantLen := d.Len()
	// A crash mid-append leaves a partial frame at the tail.
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x21, 0x00, 0x00, 0x00, 0xaa, 0xbb}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	base2, _ := durableBase(t)
	d2, err := OpenDurable(dir, DurableOptions{Base: base2, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Recovery.TruncatedBytes != 6 || d2.Recovery.Replayed != 34 {
		t.Fatalf("recovery %+v, want 34 replayed and 6 torn bytes", d2.Recovery)
	}
	if d2.Len() != wantLen {
		t.Fatalf("Len %d, want %d", d2.Len(), wantLen)
	}
	// And the log keeps working after the torn tail was cut away.
	if _, err := d2.Insert(vec.Clone(data.Row(1))); err != nil {
		t.Fatal(err)
	}
	_ = ids
}

func TestDurableDeleteSemantics(t *testing.T) {
	base, data := durableBase(t)
	d, err := OpenDurable(t.TempDir(), DurableOptions{Base: base, Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !d.Delete(5) {
		t.Fatal("delete of live id must report true")
	}
	if d.Delete(5) {
		t.Fatal("second delete of the same id must report false")
	}
	if d.Delete(-1) || d.Delete(data.N+1000) {
		t.Fatal("out-of-range deletes must report false")
	}
	if _, err := d.Insert(make([]float32, 3)); err == nil {
		t.Fatal("wrong-dimension insert must fail")
	}
}

// TestDurableDeleteLeafOrdered runs the durable delete path over a base
// whose rows are in leaf order: every live id deletes once and only once,
// whatever position its row sits at, and the checkpoint (a paged image,
// read back in input order) answers as the leaf-ordered index it was
// written from.
func TestDurableDeleteLeafOrdered(t *testing.T) {
	data := testData(t, 300, 8, 63)
	base, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 5,
		Params: lshfunc.Params{M: 4, L: 3, W: 4}}, xrand.New(64))
	if err != nil {
		t.Fatal(err)
	}
	if base.loadSnap().ext == nil {
		t.Fatal("fixture: the base is in input order")
	}
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Base: base, Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for id := 0; id < data.N; id += 2 {
		if !d.Delete(id) {
			t.Fatalf("delete of live id %d reported false", id)
		}
	}
	for id := 0; id < data.N; id++ {
		if d.Delete(id) != (id%2 == 1) {
			t.Fatalf("second pass: delete of id %d reported %v", id, id%2 == 1)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len %d after deleting every row", d.Len())
	}
	if _, err := d.Insert(data.Row(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, DurableOptions{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	sameQueries(t, d.Index, d2.Index, data)
}

func TestOpenDurableGuards(t *testing.T) {
	// Empty dir and no base.
	if _, err := OpenDurable(t.TempDir(), DurableOptions{}); err == nil {
		t.Fatal("OpenDurable must fail with no checkpoint and no base")
	}
	// Dirty base.
	base, data := durableBase(t)
	if _, err := base.Insert(vec.Clone(data.Row(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(t.TempDir(), DurableOptions{Base: base}); err == nil {
		t.Fatal("OpenDurable must refuse a base with pending overlay state")
	}
	// WAL generation ahead of the checkpoint: corrupt pairing.
	base2, _ := durableBase(t)
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Base: base2, Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	w, err := durable.CreateWAL(filepath.Join(dir, walFileName),
		durable.Header{Gen: 99, BaseN: uint64(base2.N()), Dim: base2.Dim()}, durable.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	base3, _ := durableBase(t)
	if _, err := OpenDurable(dir, DurableOptions{Base: base3}); err == nil {
		t.Fatal("OpenDurable must reject a WAL generation ahead of the checkpoint")
	}
}

// TestDurableConcurrentMutationsAndCheckpoints hammers the durable index
// from several goroutines (run under -race by make race / CI): group
// commit, the log-order-equals-apply-order mutex, and checkpoints racing
// mutations. Afterwards a crash-reopen must reproduce the exact final
// live count.
func TestDurableConcurrentMutationsAndCheckpoints(t *testing.T) {
	base, data := durableBase(t)
	seedN := base.Len() // base is d's inner index; checkpoints mutate it
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Base: base, Fsync: durable.FsyncAlways,
		MemtableThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var inserted, deleted atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				v := vec.Clone(data.Row((w*53 + i) % data.N))
				v[0] += float32(w) + float32(i)*1e-3
				if _, err := d.Insert(v); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				inserted.Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := 10; id < 40; id++ {
			if d.Delete(id) {
				deleted.Add(1)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := d.Checkpoint(); err != nil && !errors.Is(err, ErrCompactBusy) {
				t.Errorf("checkpoint: %v", err)
			}
		}
	}()
	wg.Wait()
	want := seedN + int(inserted.Load()) - int(deleted.Load())
	if d.Len() != want {
		t.Fatalf("Len = %d, want %d", d.Len(), want)
	}
	// Crash (no Close) and recover: the count must reproduce exactly.
	d2, err := OpenDurable(dir, DurableOptions{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != want {
		t.Fatalf("recovered Len = %d, want %d (recovery %+v)", d2.Len(), want, d2.Recovery)
	}
}

func TestDurableMutationsFailAfterClose(t *testing.T) {
	base, data := durableBase(t)
	d, err := OpenDurable(t.TempDir(), DurableOptions{Base: base, Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(vec.Clone(data.Row(0))); err == nil {
		t.Fatal("insert after Close must fail")
	}
	if d.Delete(1) {
		t.Fatal("delete after Close must report false")
	}
	// Reads stay alive: snapshots don't touch the log.
	if res, _ := d.Query(data.Row(0), 3); len(res.IDs) == 0 {
		t.Fatal("queries must keep working after Close")
	}
}
