package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bilsh/internal/durable"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// FuzzReadIndex asserts the index deserializer is panic-free on arbitrary
// bytes and accepts only inputs it can re-serialize consistently. The
// seeds are a Euclidean bilsh.Index/2 image and a Hamming bilsh.Index/4
// one, so the sketcher, packed-sketch and bit-sampler decoders are fuzzed
// from a valid start too.
func FuzzReadIndex(f *testing.F) {
	data := fuzzTestData()
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 2,
		Params: lshfunc.Params{M: 4, L: 1, W: 2}}, xrand.New(1))
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if _, err := ix.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("bilsh.Index/1 but not really"))
	ham, err := Build(data, Options{Metric: MetricHamming, Bits: 64, Partitioner: PartitionRPTree,
		Groups: 2, ProbeMode: ProbeMulti, Probes: 4, Params: lshfunc.Params{M: 8, L: 2}}, xrand.New(2))
	if err != nil {
		f.Fatal(err)
	}
	seed.Reset()
	if _, err := ham.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := ReadIndex(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// Anything accepted must be internally consistent enough to
		// describe and re-serialize.
		_ = got.Describe()
		var buf bytes.Buffer
		if _, err := got.WriteTo(&buf); err != nil {
			t.Fatalf("accepted index failed to re-serialize: %v", err)
		}
	})
}

// FuzzUpgrade throws arbitrary bytes at Upgrade, seeded with every legacy
// format (bilsh.Index/1, bilsh.Disk/1, bilsh.Disk/2 with and without SQ8
// codes, a wire-payload checkpoint) and a current image. Upgrade must
// never panic, and whatever it accepts must convert to a file the serving
// readers open: ReadIndex for a wire image, OpenDisk for a paged one,
// OpenDurable for a checkpoint.
func FuzzUpgrade(f *testing.F) {
	data := fuzzTestData()
	opts := Options{Partitioner: PartitionRPTree, Groups: 2, Params: lshfunc.Params{M: 4, L: 1, W: 2}}
	ix, err := Build(data, opts, xrand.New(1))
	if err != nil {
		f.Fatal(err)
	}
	opts.Quantize = QuantizeSQ8
	sq8, err := Build(data, opts, xrand.New(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mintIndexV1(f, ix))
	f.Add(mintDiskLegacy(f, ix, diskMagicV1))
	f.Add(mintDiskLegacy(f, ix, diskMagicV2))
	f.Add(mintDiskLegacy(f, sq8, diskMagicV2))
	ckpt := filepath.Join(f.TempDir(), "index.ckpt")
	mintWireCheckpoint(f, ckpt, 3, ix)
	img, err := os.ReadFile(ckpt)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	var cur bytes.Buffer
	if _, err := ix.WriteTo(&cur); err != nil {
		f.Fatal(err)
	}
	f.Add(cur.Bytes())
	f.Add([]byte(diskMagicV2))

	f.Fuzz(func(t *testing.T, raw []byte) {
		in := filepath.Join(t.TempDir(), "in")
		if err := os.WriteFile(in, raw, 0o644); err != nil {
			t.Skip()
		}
		dir := t.TempDir()
		out := filepath.Join(dir, ckptFileName)
		_, to, err := Upgrade(in, out)
		if err != nil {
			return
		}
		if _, cf, err := durable.OpenCheckpoint(out); err == nil {
			cf.Close()
			d, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatalf("upgraded checkpoint (%s) does not open: %v", to, err)
			}
			d.Close()
			return
		}
		if to == diskMagicV3 {
			di, err := OpenDisk(out)
			if err != nil {
				t.Fatalf("upgraded paged file does not open: %v", err)
			}
			di.Close()
			return
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadIndex(bytes.NewReader(b)); err != nil {
			t.Fatalf("upgraded %s image does not open: %v", to, err)
		}
	})
}

func fuzzTestData() *vec.Matrix {
	rng := xrand.New(3)
	rows := make([][]float32, 40)
	for i := range rows {
		rows[i] = rng.GaussianVec(6)
	}
	return vec.FromRows(rows)
}
