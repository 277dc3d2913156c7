package core

import (
	"bytes"
	"errors"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/rptree"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
	"bilsh/internal/xrand"
)

func validOptions() Options {
	o := Options{Partitioner: PartitionRPTree, Groups: 4,
		Params: lshfunc.Params{M: 4, L: 3, W: 2}}
	if err := o.fill(); err != nil {
		panic(err)
	}
	return o
}

// TestReadOptionsRejectsInvalid drives the decode path with option blocks
// that are structurally well-formed wire data but semantically invalid.
// Before Options.Validate ran on the full decoded struct, most of these
// were accepted and detonated later (unknown probe mode panics at query
// time; a huge Probes allocates per query; MortonBits 40 overflows the
// Morton key).
func TestReadOptionsRejectsInvalid(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"unknown lattice", func(o *Options) { o.Lattice = 99 }},
		{"retired lattice 2", func(o *Options) { o.Lattice = 2 }},
		{"unknown partitioner", func(o *Options) { o.Partitioner = -1 }},
		{"unknown probe mode", func(o *Options) { o.ProbeMode = 7 }},
		{"unknown rp rule", func(o *Options) { o.RPRule = rptree.Rule(9) }},
		{"zero groups", func(o *Options) { o.Groups = 0 }},
		{"huge groups", func(o *Options) { o.Groups = 1<<20 + 1 }},
		{"zero probes", func(o *Options) { o.Probes = 0 }},
		{"huge probes", func(o *Options) { o.Probes = 1<<20 + 1 }},
		{"L over byte", func(o *Options) { o.Params.L = 300 }},
		{"zero M", func(o *Options) { o.Params.M = 0 }},
		{"negative W", func(o *Options) { o.Params.W = -1 }},
		{"negative TuneK", func(o *Options) { o.TuneK = -2 }},
		{"recall over 1", func(o *Options) { o.TuneTargetRecall = 1.5 }},
		{"morton bits over 31", func(o *Options) { o.MortonBits = 40 }},
		{"negative hier floor", func(o *Options) { o.HierMinCandidates = -1 }},
		{"negative min group", func(o *Options) { o.MinGroupSize = -3 }},
		{"unknown quantize", func(o *Options) { o.Quantize = QuantizeKind(5) }},
		{"negative rerank factor", func(o *Options) { o.RerankFactor = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := validOptions()
			tc.mutate(&o)
			if err := o.Validate(); err == nil {
				t.Fatal("Validate accepted the mutation")
			}
			var buf bytes.Buffer
			ww := wire.NewWriter(&buf)
			writeOptions(ww, o)
			if err := ww.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := readOptions(wire.NewReader(&buf), 2); err == nil {
				t.Fatal("readOptions accepted an invalid decoded option block")
			}
		})
	}

	// The unmutated block must round-trip.
	o := validOptions()
	var buf bytes.Buffer
	ww := wire.NewWriter(&buf)
	writeOptions(ww, o)
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readOptions(wire.NewReader(&buf), 2)
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if got.Lattice != o.Lattice || got.Groups != o.Groups || got.Params != o.Params ||
		got.Quantize != o.Quantize || got.RerankFactor != o.RerankFactor {
		t.Fatalf("options changed across encode/decode: %+v vs %+v", got, o)
	}
}

// TestReadIndexRejectsRetiredLattice: lattice kind 2 once named a third
// quantizer; a bilsh.Index/2 stream whose option block still carries it is
// refused with an error, while the same stream naming E8 loads.
func TestReadIndexRejectsRetiredLattice(t *testing.T) {
	data := testData(t, 120, 8, 44)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 2, Lattice: LatticeE8,
		Params: lshfunc.Params{M: 8, L: 2, W: 2}}, xrand.New(45))
	if err != nil {
		t.Fatal(err)
	}
	stream := func(lat LatticeKind) *bytes.Buffer {
		sn := ix.loadSnap()
		o := ix.opts
		o.Lattice = lat
		var buf bytes.Buffer
		ww := wire.NewWriter(&buf)
		ww.Magic(indexMagic)
		writeOptions(ww, o)
		sn.data.EncodeRows(ww, sn.pos)
		writeQuant(ww, sn.quant, sn.pos)
		writeStructure(ww, sn.level1, sn.groups, sn.ext)
		if err := ww.Flush(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if _, err := ReadIndex(stream(LatticeE8)); err != nil {
		t.Fatalf("E8 stream rejected: %v", err)
	}
	if _, err := ReadIndex(stream(2)); err == nil {
		t.Fatal("ReadIndex accepted an option block naming lattice 2")
	}
}

// TestBuildRejectsInvalidOptions checks fill() now funnels through the
// same validation, so a bad literal Options fails at Build rather than
// corrupting the index.
func TestBuildRejectsInvalidOptions(t *testing.T) {
	data := testData(t, 50, 8, 41)
	for _, o := range []Options{
		{Partitioner: PartitionerKind(12), Params: lshfunc.Params{M: 4, L: 2, W: 2}},
		{RPRule: rptree.Rule(5), Partitioner: PartitionRPTree, Params: lshfunc.Params{M: 4, L: 2, W: 2}},
		{ProbeMode: ProbeMode(6), Params: lshfunc.Params{M: 4, L: 2, W: 2}},
		{HierMinCandidates: -4, Params: lshfunc.Params{M: 4, L: 2, W: 2}},
	} {
		if _, err := Build(data, o, xrand.New(1)); err == nil {
			t.Fatalf("Build accepted invalid options %+v", o)
		}
	}
}

func TestWriteToDirtyIndexReturnsSentinel(t *testing.T) {
	data := testData(t, 60, 8, 42)
	ix, err := Build(data, Options{Partitioner: PartitionNone,
		Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(vec.Clone(data.Row(0))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); !errors.Is(err, ErrDirtyIndex) {
		t.Fatalf("WriteTo on a dirty index returned %v, want ErrDirtyIndex", err)
	}
	if _, err := ix.WriteDiskTo(&writeSeekBuffer{}); !errors.Is(err, ErrDirtyIndex) {
		t.Fatalf("WriteDiskTo on a dirty index returned %v, want ErrDirtyIndex", err)
	}
	if _, err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo after Compact: %v", err)
	}
}

// writeSeekBuffer is a minimal in-memory io.WriteSeeker for the disk
// layout's dirty check (which fires before any byte is written).
type writeSeekBuffer struct{ buf []byte }

func (w *writeSeekBuffer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *writeSeekBuffer) Seek(offset int64, whence int) (int64, error) {
	return offset, nil
}
