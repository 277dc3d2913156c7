package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bilsh/internal/durable"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
	"bilsh/internal/xrand"
)

// Fixture minters for the formats only Upgrade reads. They write what the
// retired writers wrote, so the converter tests start from real legacy
// bytes.

// writeOptionsV1 emits the 15-field option block of bilsh.Index/1 and
// bilsh.Disk/1: writeOptions without the quantization knobs.
func writeOptionsV1(ww *wire.Writer, o Options) {
	ww.Int(int(o.Lattice))
	ww.Int(int(o.Partitioner))
	ww.Int(o.Groups)
	ww.Int(int(o.RPRule))
	ww.Int(o.Params.M)
	ww.Int(o.Params.L)
	ww.F64(o.Params.W)
	ww.Int(int(o.ProbeMode))
	ww.Int(o.Probes)
	ww.Bool(o.AutoTuneW)
	ww.Int(o.TuneK)
	ww.F64(o.TuneTargetRecall)
	ww.Int(o.MortonBits)
	ww.Int(o.HierMinCandidates)
	ww.Int(o.MinGroupSize)
}

// mintIndexV1 returns the bilsh.Index/1 image of an unquantized index: v1
// magic, the v1 option block, data, structure.
func mintIndexV1(t testing.TB, ix *Index) []byte {
	t.Helper()
	sn := ix.loadSnap()
	var buf bytes.Buffer
	ww := wire.NewWriter(&buf)
	ww.Magic(indexMagicV1)
	writeOptionsV1(ww, ix.opts)
	sn.data.EncodeRows(ww, sn.pos)
	writeStructure(ww, sn.level1, sn.groups, sn.ext)
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mintDiskLegacy returns ix in the fixed-stride layout the ReadAt row path
// served (format bilsh.Disk/1 or /2): the zero-padded magic, the data
// offset, the wire metadata (options, n, d, the /2 quantized rows,
// structure), then the float32 rows.
func mintDiskLegacy(t testing.TB, ix *Index, format string) []byte {
	t.Helper()
	sn := ix.loadSnap()
	var meta bytes.Buffer
	ww := wire.NewWriter(&meta)
	if format == diskMagicV1 {
		writeOptionsV1(ww, ix.opts)
	} else {
		writeOptions(ww, ix.opts)
	}
	ww.Int(sn.data.N)
	ww.Int(sn.data.D)
	if format == diskMagicV2 {
		writeQuant(ww, sn.quant, sn.pos)
	}
	writeStructure(ww, sn.level1, sn.groups, sn.ext)
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, diskMagicLen+8)
	copy(img, format)
	binary.LittleEndian.PutUint64(img[diskMagicLen:], uint64(len(img)+meta.Len()))
	img = append(img, meta.Bytes()...)
	for id := 0; id < sn.data.N; id++ {
		for _, v := range sn.data.Row(sn.position(id)) {
			img = binary.LittleEndian.AppendUint32(img, math.Float32bits(v))
		}
	}
	return img
}

// mintWireCheckpoint writes a durable checkpoint whose payload is ix's
// wire image, as checkpoints were written before the paged layout.
func mintWireCheckpoint(t testing.TB, path string, gen uint64, ix *Index) {
	t.Helper()
	err := durable.WriteCheckpoint(path, gen, func(f *os.File) error {
		_, err := ix.WriteTo(f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameQueries asserts got answers every query exactly as want does.
func sameQueries(t *testing.T, want, got *Index, queries *vec.Matrix) {
	t.Helper()
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		r1, s1 := want.Query(q, 7)
		r2, s2 := got.Query(q, 7)
		if !reflect.DeepEqual(r1, r2) || s1.Candidates != s2.Candidates {
			t.Fatalf("query %d: upgraded index answers %v, source %v", qi, r2.IDs, r1.IDs)
		}
	}
}

// TestUpgradeIndexV1: a bilsh.Index/1 file is refused by ReadIndex and
// upgraded in place to exactly the bilsh.Index/2 image its source writes,
// which answers every query as the source does.
func TestUpgradeIndexV1(t *testing.T) {
	data := testData(t, 300, 12, 59)
	queries := testData(t, 10, 12, 60)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 4,
		Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, mintIndexV1(t, ix))
	if _, err := ReadIndex(bytes.NewReader(readFile(t, path))); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("ReadIndex of an Index/1 file: %v, want ErrLegacyFormat", err)
	}
	from, to, err := Upgrade(path, path)
	if err != nil || from != indexMagicV1 || to != indexMagic {
		t.Fatalf("Upgrade = %q → %q, %v", from, to, err)
	}
	var want bytes.Buffer
	if _, err := ix.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, path)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("upgraded Index/1 differs from the source's Index/2 image")
	}
	loaded, err := ReadIndex(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	sameQueries(t, ix, loaded, queries)
}

// TestUpgradeDiskLegacy: bilsh.Disk/1 and /2 files (float32 and SQ8) are
// refused by OpenDisk and upgraded to exactly the paged image their
// source saves, which answers every query as the source does.
func TestUpgradeDiskLegacy(t *testing.T) {
	data := testData(t, 350, 12, 940)
	queries := testData(t, 20, 12, 941)
	plain := Options{Partitioner: PartitionRPTree, Groups: 3, Params: lshfunc.Params{M: 4, L: 2, W: 2}}
	sq8 := plain
	sq8.Quantize = QuantizeSQ8
	for _, c := range []struct {
		format string
		opts   Options
	}{{diskMagicV1, plain}, {diskMagicV2, plain}, {diskMagicV2, sq8}} {
		ix, err := Build(data, c.opts, xrand.New(942))
		if err != nil {
			t.Fatal(err)
		}
		path := writeFile(t, mintDiskLegacy(t, ix, c.format))
		if _, err := OpenDisk(path); !errors.Is(err, ErrLegacyFormat) {
			t.Fatalf("%s: OpenDisk: %v, want ErrLegacyFormat", c.format, err)
		}
		from, to, err := Upgrade(path, path)
		if err != nil || from != c.format || to != diskMagicV3 {
			t.Fatalf("%s: Upgrade = %q → %q, %v", c.format, from, to, err)
		}
		if !bytes.Equal(readFile(t, path), readFile(t, saveV3(t, ix))) {
			t.Fatalf("%s: upgraded file differs from the source's paged image", c.format)
		}
		di, err := OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		sameQueries(t, ix, di.Index, queries)
		di.Close()
	}
}

// TestUpgradeDurableWirePayload: a data directory whose checkpoint carries
// a wire payload is refused by OpenDurable; upgrading the checkpoint in
// place keeps its generation, so the WAL beside it still replays, and the
// recovered index (heap or mapped) answers as the same operations applied
// directly.
func TestUpgradeDurableWirePayload(t *testing.T) {
	base, data := durableBase(t)
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d.Insert, d.Delete, data)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	clean, _ := durableBase(t)
	ckpt := filepath.Join(dir, ckptFileName)
	mintWireCheckpoint(t, ckpt, d.Gen(), clean)
	if _, err := OpenDurable(dir, DurableOptions{}); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("OpenDurable of a wire-payload checkpoint: %v, want ErrLegacyFormat", err)
	}

	from, to, err := Upgrade(ckpt, ckpt)
	if err != nil || from != indexMagic || to != diskMagicV3 {
		t.Fatalf("Upgrade = %q → %q, %v", from, to, err)
	}
	ref, _ := durableBase(t)
	applyOps(t, ref.Insert, ref.Delete, data)
	for _, mapped := range []bool{false, true} {
		d2, err := OpenDurable(dir, DurableOptions{Mmap: mapped})
		if err != nil {
			t.Fatal(err)
		}
		if r := d2.Recovery; !r.FromCheckpoint || r.Gen != d.Gen() || r.Replayed != 34 || r.DiscardedWAL {
			t.Fatalf("mmap=%v: recovery %+v", mapped, r)
		}
		sameQueries(t, ref, d2.Index, data)
		d2.Close()
	}
}

// TestUpgradeCurrentAndGarbage: current files are checked and left
// byte-identical (or copied verbatim); anything else is refused.
func TestUpgradeCurrentAndGarbage(t *testing.T) {
	data := testData(t, 200, 8, 945)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 2,
		Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(946))
	if err != nil {
		t.Fatal(err)
	}
	ham, _ := hammingIndex(t, ProbeSingle, 0)
	var wire2, wire4 bytes.Buffer
	if _, err := ix.WriteTo(&wire2); err != nil {
		t.Fatal(err)
	}
	if _, err := ham.WriteTo(&wire4); err != nil {
		t.Fatal(err)
	}
	for format, img := range map[string][]byte{
		indexMagic:   wire2.Bytes(),
		indexMagicV4: wire4.Bytes(),
		diskMagicV3:  readFile(t, saveV3(t, ix)),
	} {
		path := writeFile(t, img)
		from, to, err := Upgrade(path, path)
		if err != nil || from != format || to != format {
			t.Fatalf("%s: Upgrade = %q → %q, %v", format, from, to, err)
		}
		copyPath := filepath.Join(t.TempDir(), "copy")
		if _, _, err := Upgrade(path, copyPath); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, path), img) || !bytes.Equal(readFile(t, copyPath), img) {
			t.Fatalf("%s: a current file was rewritten", format)
		}
	}
	for _, bad := range [][]byte{nil, []byte("definitely not an index"), wire2.Bytes()[:wire2.Len()/2]} {
		if _, _, err := Upgrade(writeFile(t, bad), filepath.Join(t.TempDir(), "out")); err == nil {
			t.Fatalf("Upgrade accepted %d bytes of garbage", len(bad))
		}
	}
}
