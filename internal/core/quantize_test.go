package core

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
	"bilsh/internal/xrand"
)

// The quantized scan's contract: SQ8 changes which candidates reach the
// final heap (selection), never the distances that come out of it (the
// shortlist is re-ranked against exact float32 rows). These tests pin that
// contract, the v1/v2 wire compatibility, and the alloc budget.

func quantOptions(extra func(*Options)) Options {
	o := Options{
		Partitioner: PartitionRPTree,
		Groups:      4,
		Quantize:    QuantizeSQ8,
		Params:      lshfunc.Params{M: 4, L: 3, W: 2},
	}
	if extra != nil {
		extra(&o)
	}
	return o
}

// TestQuantizedMatchesFloatWithFullRerank: with a re-rank budget covering
// every candidate, the quantized path exact-ranks the whole short list, so
// results must be byte-identical to the float32 index built with the same
// seed (the structures are identical; only the scan differs).
func TestQuantizedMatchesFloatWithFullRerank(t *testing.T) {
	data := testData(t, 500, 20, 51)
	queries := testData(t, 20, 20, 52)
	base, err := Build(data, quantOptions(func(o *Options) { o.Quantize = QuantizeNone }), xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	quant, err := Build(data, quantOptions(func(o *Options) { o.RerankFactor = 1 << 20 }), xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if quant.loadSnap().quant == nil {
		t.Fatal("SQ8 build produced no quantized matrix")
	}
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		r1, _ := base.Query(q, 9)
		r2, _ := quant.Query(q, 9)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("query %d: full-rerank quantized results differ from float: %v vs %v", qi, r2, r1)
		}
	}
}

// TestQuantizedDistancesAlwaysExact: at the default re-rank factor every
// returned distance must still equal the exact float32 squared distance —
// quantization error may only move the selection edge.
func TestQuantizedDistancesAlwaysExact(t *testing.T) {
	data := testData(t, 500, 20, 53)
	queries := testData(t, 20, 20, 54)
	ix, err := Build(data, quantOptions(nil), xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		r, _ := ix.Query(q, 9)
		for i, id := range r.IDs {
			if want := vec.SqDist(data.Row(id), q); r.Dists[i] != want {
				t.Fatalf("query %d id %d: dist %v, exact %v (re-rank must be exact)", qi, id, r.Dists[i], want)
			}
		}
	}
}

// TestSetQuantize: toggling quantization on a live index publishes new
// snapshots, keeps distances exact, and toggling back restores results
// identical to the original float index.
func TestSetQuantize(t *testing.T) {
	data := testData(t, 400, 16, 55)
	queries := testData(t, 10, 16, 56)
	ix, err := Build(data, quantOptions(func(o *Options) { o.Quantize = QuantizeNone }), xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	before := make([]interface{}, queries.N)
	for qi := 0; qi < queries.N; qi++ {
		r, _ := ix.Query(queries.Row(qi), 5)
		before[qi] = r
	}
	epoch := ix.Epoch()
	if err := ix.SetQuantize(QuantizeSQ8, 6); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() != epoch+1 {
		t.Fatalf("SetQuantize did not publish (epoch %d -> %d)", epoch, ix.Epoch())
	}
	if ix.loadSnap().quant == nil {
		t.Fatal("SetQuantize(sq8) left quant nil")
	}
	if ix.Options().Quantize != QuantizeSQ8 || ix.Options().RerankFactor != 6 {
		t.Fatalf("options not updated: %+v", ix.Options())
	}
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		r, _ := ix.Query(q, 5)
		for i, id := range r.IDs {
			if want := vec.SqDist(data.Row(id), q); r.Dists[i] != want {
				t.Fatalf("quantized query %d id %d: dist %v, exact %v", qi, id, r.Dists[i], want)
			}
		}
	}
	if err := ix.SetQuantize(QuantizeNone, 0); err != nil {
		t.Fatal(err)
	}
	if ix.loadSnap().quant != nil {
		t.Fatal("SetQuantize(none) kept a quantized matrix")
	}
	for qi := 0; qi < queries.N; qi++ {
		r, _ := ix.Query(queries.Row(qi), 5)
		if !reflect.DeepEqual(interface{}(r), before[qi]) {
			t.Fatalf("query %d: results after sq8 round trip differ from original", qi)
		}
	}
	if err := ix.SetQuantize(QuantizeKind(9), 0); err == nil {
		t.Fatal("SetQuantize accepted an unknown kind")
	}
}

// TestQuantizedSerializeRoundTrip: a quantized index survives WriteTo /
// ReadIndex and SaveDisk / OpenDisk with identical query results, and the
// reloaded index carries the quantized matrix (not a rebuild).
func TestQuantizedSerializeRoundTrip(t *testing.T) {
	data := testData(t, 400, 16, 57)
	queries := testData(t, 10, 16, 58)
	ix, err := Build(data, quantOptions(nil), xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTripIndex(t, ix)
	if loaded.loadSnap().quant == nil {
		t.Fatal("reloaded index lost its quantized matrix")
	}
	if !bytes.Equal(loaded.loadSnap().quant.Codes, ix.loadSnap().quant.Codes) {
		t.Fatal("quantized codes changed across round trip")
	}

	path := filepath.Join(t.TempDir(), "quant.bilsh")
	if err := ix.SaveDisk(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if di.loadSnap().quant == nil {
		t.Fatal("disk index lost its quantized matrix")
	}
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		r1, _ := ix.Query(q, 7)
		r2, _ := loaded.Query(q, 7)
		r3, _ := di.Query(q, 7)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("query %d: in-memory round trip differs", qi)
		}
		if !reflect.DeepEqual(r1, r3) {
			t.Fatalf("query %d: disk round trip differs", qi)
		}
	}
}

// TestQuantizedInsertDeleteCompact: overlay rows rank exactly alongside
// the quantized base, and Compact folds them into a rebuilt code matrix.
func TestQuantizedInsertDeleteCompact(t *testing.T) {
	data := testData(t, 300, 12, 61)
	queries := testData(t, 8, 12, 62)
	extra := testData(t, 40, 12, 63)
	ix, err := Build(data, quantOptions(nil), xrand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < extra.N; i++ {
		if _, err := ix.Insert(extra.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix.Delete(3)
	ix.Delete(data.N + 5) // one base row, one overlay row
	checkExact := func(stage string) {
		t.Helper()
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			r, _ := ix.Query(q, 6)
			for i, id := range r.IDs {
				if want := vec.SqDist(ix.row(id), q); r.Dists[i] != want {
					t.Fatalf("%s query %d id %d: dist %v, exact %v", stage, qi, id, r.Dists[i], want)
				}
			}
		}
	}
	checkExact("pre-compact")
	mapping, err := ix.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if mapping[3] != -1 {
		t.Fatal("deleted base row survived compact")
	}
	qm := ix.loadSnap().quant
	if qm == nil {
		t.Fatal("Compact dropped the quantized matrix")
	}
	if qm.N != ix.N() {
		t.Fatalf("compacted quant covers %d rows, base has %d", qm.N, ix.N())
	}
	checkExact("post-compact")
}

// TestQueryAllocsQuantized pins the steady-state allocation count of the
// quantized query path: the SQ8 scan, shortlist selection and exact
// re-rank must all run out of the per-query scratch.
func TestQueryAllocsQuantized(t *testing.T) {
	rng := xrand.New(3)
	const n, d = 600, 16
	data := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		copy(data.Row(i), rng.GaussianVec(d))
	}
	qs := vec.NewMatrix(32, d)
	for i := 0; i < qs.N; i++ {
		copy(qs.Row(i), data.Row(rng.Intn(n)))
	}
	ix, err := Build(data, Options{
		Partitioner: PartitionRPTree,
		Groups:      4,
		Quantize:    QuantizeSQ8,
		Probes:      8,
	}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	s := ix.getScratch()
	for i := 0; i < qs.N; i++ {
		ix.query(qs.Row(i), 5, s)
	}
	qi := 0
	got := testing.AllocsPerRun(200, func() {
		ix.query(qs.Row(qi%qs.N), 5, s)
		qi++
	})
	if got > 2 {
		t.Fatalf("quantized Query allocates %.1f/op in steady state, want <= 2 (result slices only)", got)
	}
}

// TestOpenDiskRejectsShapeMismatchQuant guards the decode-time consistency
// check between the quantized matrix and the data shape.
func TestReadIndexRejectsQuantShapeMismatch(t *testing.T) {
	data := testData(t, 100, 8, 64)
	ix, err := Build(data, quantOptions(nil), xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the quant section's row count: re-encode with a wrong shape.
	sn := ix.loadSnap()
	bad := *sn.quant
	bad.N = 99
	bad.Codes = bad.Codes[:99*bad.D]
	var buf2 bytes.Buffer
	ww := wire.NewWriter(&buf2)
	ww.Magic(indexMagic)
	writeOptions(ww, ix.opts)
	sn.data.Encode(ww)
	writeQuant(ww, &bad)
	writeStructure(ww, sn.tree, sn.km, sn.groups)
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(bytes.NewReader(buf2.Bytes())); err == nil {
		t.Fatal("ReadIndex accepted a quant/data shape mismatch")
	}
}
