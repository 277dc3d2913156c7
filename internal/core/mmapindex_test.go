package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"bilsh/internal/durable"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// saveV3 writes ix in the paged layout and returns the path.
func saveV3(t *testing.T, ix *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.v3")
	if err := ix.SaveDisk(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedHeapEquivalence pins that the mapped read path is
// byte-identical to both the heap-loaded copy of the same file and the
// original in-memory index, across lattices × probe modes × quantization.
// Any divergence here means the in-place decoders (cuckoo, lshtable,
// member arrays, row/code sections) do not reproduce the heap structures.
func TestMappedHeapEquivalence(t *testing.T) {
	data := testData(t, 500, 16, 910)
	queries := testData(t, 25, 16, 911)
	cases := []Options{
		{Partitioner: PartitionRPTree, Groups: 4,
			Params: lshfunc.Params{M: 4, L: 3, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, Lattice: LatticeE8,
			ProbeMode: ProbeHierarchy, Params: lshfunc.Params{M: 8, L: 2, W: 2}},
		{Partitioner: PartitionNone, Lattice: LatticeDn, ProbeMode: ProbeMulti,
			Probes: 12, Params: lshfunc.Params{M: 4, L: 2, W: 2}},
		{Partitioner: PartitionKMeans, Groups: 3, Quantize: QuantizeSQ8,
			Params: lshfunc.Params{M: 4, L: 3, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, Lattice: LatticeE8, Quantize: QuantizeSQ8,
			ProbeMode: ProbeHierarchy, Params: lshfunc.Params{M: 8, L: 2, W: 2}},
	}
	for ci, opts := range cases {
		ix, err := Build(data, opts, xrand.New(912))
		if err != nil {
			t.Fatal(err)
		}
		path := saveV3(t, ix)
		mapped, err := OpenDisk(path)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		defer mapped.Close()
		heap, err := OpenDiskWith(path, DiskOpenOptions{ForceHeap: true})
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		defer heap.Close()
		if heap.Mapped() {
			t.Fatalf("case %d: ForceHeap still mapped", ci)
		}

		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			r0, s0 := ix.Query(q, 7)
			rm, sm := mapped.Query(q, 7)
			rh, sh := heap.Query(q, 7)
			if !reflect.DeepEqual(r0, rm) || !reflect.DeepEqual(rm, rh) {
				t.Fatalf("case %d query %d: results diverge\nmem=%v\nmap=%v\nheap=%v",
					ci, qi, r0.IDs, rm.IDs, rh.IDs)
			}
			if s0.Candidates != sm.Candidates || sm.Candidates != sh.Candidates {
				t.Fatalf("case %d query %d: candidate counts diverge (%d/%d/%d)",
					ci, qi, s0.Candidates, sm.Candidates, sh.Candidates)
			}
		}
		em := mapped.ExactKNN(queries.Row(0), 5)
		eh := heap.ExactKNN(queries.Row(0), 5)
		if !reflect.DeepEqual(em, eh) {
			t.Fatalf("case %d: ExactKNN diverges", ci)
		}
	}
}

// TestMappedQueryAllocs pins that serving off the mapping preserves the
// ≤2-alloc steady-state query path (the result's IDs and Dists slices):
// the SIMD kernels and probe loop must run directly on mapped pages with
// no per-query decode or copy.
func TestMappedQueryAllocs(t *testing.T) {
	for _, quantize := range []QuantizeKind{QuantizeNone, QuantizeSQ8} {
		rng := xrand.New(33)
		const n, d = 600, 16
		data := vec.NewMatrix(n, d)
		for i := 0; i < n; i++ {
			copy(data.Row(i), rng.GaussianVec(d))
		}
		ix, err := Build(data, Options{
			Partitioner: PartitionRPTree, Groups: 4, Quantize: quantize,
			Params: lshfunc.Params{M: 4, L: 3, W: 2},
		}, xrand.New(34))
		if err != nil {
			t.Fatal(err)
		}
		di, err := OpenDisk(saveV3(t, ix))
		if err != nil {
			t.Fatal(err)
		}
		defer di.Close()

		qs := vec.NewMatrix(32, d)
		for i := 0; i < qs.N; i++ {
			copy(qs.Row(i), data.Row(rng.Intn(n)))
		}
		s := di.getScratch()
		for i := 0; i < qs.N; i++ {
			di.query(qs.Row(i), 5, s)
		}
		qi := 0
		got := testing.AllocsPerRun(200, func() {
			di.query(qs.Row(qi%qs.N), 5, s)
			qi++
		})
		if got > 2 {
			t.Fatalf("quantize=%v: mapped Query allocates %.1f/op, want <= 2 (result slices only)", quantize, got)
		}
	}
}

// TestDiskLayoutCorruptionDetectedAtOpen pins the SIGBUS-avoidance
// contract: damage to a paged file is caught by the per-section CRC pass
// at open — with a structured error — never discovered as a fault (or
// silent garbage) at query time.
func TestDiskLayoutCorruptionDetectedAtOpen(t *testing.T) {
	data := testData(t, 300, 8, 920)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 3,
		Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(921))
	if err != nil {
		t.Fatal(err)
	}
	path := saveV3(t, ix)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reject := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		bad := mutate(append([]byte{}, orig...))
		badPath := filepath.Join(t.TempDir(), "bad.v3")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		di, err := OpenDisk(badPath)
		if err == nil {
			di.Close()
			t.Fatalf("%s: corrupt file accepted", name)
		}
		if !errors.Is(err, ErrBadDiskLayout) {
			t.Fatalf("%s: error not tagged ErrBadDiskLayout: %v", name, err)
		}
	}
	reject("truncated-tail", func(b []byte) []byte { return b[:len(b)-512] })
	reject("truncated-half", func(b []byte) []byte { return b[:len(b)/2] })
	reject("bitflip-rows", func(b []byte) []byte { b[len(b)-9] ^= 0x40; return b })
	reject("bitflip-middle", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })
	reject("bitflip-header", func(b []byte) []byte { b[24] ^= 0x01; return b })

	// The pristine file still opens.
	di, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	di.Close()
}

// TestMappedSwapUnderLoad hammers a mapped index with concurrent queries
// while inserts and Compacts swap the snapshot out from under them (run
// with -race in CI). Queries must stay correct throughout: in-flight
// readers hold the old mapped snapshot (KeepAlive roots the mapping)
// while the swap publishes a heap base.
func TestMappedSwapUnderLoad(t *testing.T) {
	data := testData(t, 400, 8, 930)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 3,
		Params: lshfunc.Params{M: 4, L: 2, W: 3}}, xrand.New(931))
	if err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(saveV3(t, ix))
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if !di.Mapped() {
		t.Skip("mmap unavailable on this host")
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := xrand.New(seed)
			q := make([]float32, 8)
			for {
				select {
				case <-done:
					return
				default:
				}
				copy(q, data.Row(rng.Intn(data.N)))
				r, _ := di.Query(q, 5)
				if len(r.IDs) == 0 {
					t.Error("query returned nothing during swap")
					return
				}
			}
		}(int64(w))
	}
	rng := xrand.New(932)
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			if _, err := di.Insert(rng.GaussianVec(8)); err != nil {
				t.Error(err)
			}
		}
		if _, err := di.Compact(); err != nil {
			t.Error(err)
		}
		// Press the GC: a mapping kept alive only by accident would be
		// finalized here and turn in-flight reads into faults.
		runtime.GC()
	}
	close(done)
	wg.Wait()
}

// TestResidencyControls exercises the policy surface end to end on a real
// mapped index: sampling, budget enforcement, and that eviction cannot
// change results (clean pages refault with identical bytes).
func TestResidencyControls(t *testing.T) {
	data := testData(t, 800, 32, 950)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 3,
		Quantize: QuantizeSQ8, Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(951))
	if err != nil {
		t.Fatal(err)
	}
	di, err := OpenDiskWith(saveV3(t, ix), DiskOpenOptions{
		Residency: ResidencyPolicy{PinCodes: true, RowsBudget: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if !di.Mapped() {
		t.Skip("mmap unavailable on this host")
	}

	q := data.Row(11)
	before, _ := di.Query(q, 5)
	st := di.Residency()
	if st.MappedBytes <= 0 || st.RowsBytes <= 0 {
		t.Fatalf("implausible residency stats: %+v", st)
	}
	st = di.EnforceResidency()
	if st.RowsBudget != 4096 {
		t.Fatalf("budget not carried: %+v", st)
	}
	after, _ := di.Query(q, 5)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("eviction changed query results")
	}
	di.SetRowsBudget(1 << 30)
	if st := di.EnforceResidency(); st.RowsBudget != 1<<30 {
		t.Fatalf("SetRowsBudget not applied: %+v", st)
	}
}

// TestDurableMmap covers the durable pairing: a data directory opened
// with Mmap serves off the checkpoint mapping, checkpoints write paged
// payloads and remap onto the new generation, and the directory remains
// interchangeable with heap mode.
func TestDurableMmap(t *testing.T) {
	data := testData(t, 300, 8, 960)
	base, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 3,
		Params: lshfunc.Params{M: 4, L: 2, W: 3}}, xrand.New(961))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Base: base, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	// Seeded from Base: nothing on disk yet, so nothing is mapped. The
	// first checkpoint writes a paged payload and remaps onto it.
	rng := xrand.New(962)
	var inserted [][]float32
	for i := 0; i < 10; i++ {
		v := rng.GaussianVec(8)
		inserted = append(inserted, v)
		if _, err := d.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !d.Mapped() {
		t.Fatal("durable index not mapped after checkpoint")
	}
	if st := d.Residency(); st.MappedBytes <= 0 {
		t.Fatalf("implausible durable residency: %+v", st)
	}
	for _, v := range inserted {
		r, _ := d.Query(v, 1)
		if len(r.IDs) == 0 || r.Dists[0] != 0 {
			t.Fatal("inserted vector lost across mapped checkpoint")
		}
	}
	// A second checkpoint cycle must swap generations cleanly.
	if _, err := d.Insert(rng.GaussianVec(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !d.Mapped() {
		t.Fatal("durable index lost its mapping on the second checkpoint")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen mapped: recovery must map the paged checkpoint directly.
	d2, err := OpenDurable(dir, DurableOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Recovery.FromCheckpoint {
		t.Fatal("reopen did not recover from checkpoint")
	}
	if !d2.Mapped() {
		t.Fatal("reopened durable index not mapped")
	}
	r2, _ := d2.Query(inserted[0], 1)
	if len(r2.IDs) == 0 || r2.Dists[0] != 0 {
		t.Fatal("vector lost across mapped reopen")
	}
	d2.Close()

	// Heap mode reads the same paged payload into memory, and its own
	// checkpoints write the paged layout too.
	d3, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.Mapped() || d3.Describe().DiskBacked {
		t.Fatal("heap-mode open claims to be mapped")
	}
	r3, _ := d3.Query(inserted[0], 1)
	if !reflect.DeepEqual(r2, r3) {
		t.Fatal("heap-mode open queries differently from mapped open")
	}
	if _, err := d3.Insert(rng.GaussianVec(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := d3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.Open(filepath.Join(dir, ckptFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if got := sniffFormat(ckpt, durable.CheckpointHeaderLen); got != diskMagicV3 {
		t.Fatalf("heap-mode checkpoint payload is %q, want %q", got, diskMagicV3)
	}
}
