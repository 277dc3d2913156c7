package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bilsh/internal/durable"
	"bilsh/internal/lshfunc"
	"bilsh/internal/lshtable"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
	"bilsh/internal/xrand"
)

// Fixtures for the hash families before binary16: the float32 family a
// group drew, its lshfunc.Family/1 section, and the tables the float32
// directions hashed, so the converter starts from the bytes the float32
// encoder wrote.

// familyV1 is one group's family as the float32 encoder held it.
type familyV1 struct {
	d, m, l int
	w       float64
	dirs    [][]float32 // per table, M×D as drawn
	bFrac   [][]float64 // per table, M offsets as fractions of w
}

// redrawFamiliesV1 redraws the float32 families Build(data, opts,
// xrand.New(seed)) drew for ix's groups: the same RNG calls Build,
// buildGroup and NewFamily make, without the rounding. It covers the
// Euclidean metric and the RP-tree and k-means partitioners.
func redrawFamiliesV1(ix *Index, opts Options, seed int64) []familyV1 {
	rng := xrand.New(seed)
	rng.Split(1) // the partitioner's stream
	grng := rng.Split(2)
	sn := ix.loadSnap()
	rngs := make([]*xrand.RNG, len(sn.groups))
	for gi := range rngs {
		rngs[gi] = grng.Split(int64(gi))
	}
	fams := make([]familyV1, len(sn.groups))
	for gi, g := range sn.groups {
		r := rngs[gi]
		if opts.AutoTuneW && len(g.members) >= 2 {
			r.Split(100) // the tuner's stream
		}
		fr := r.Split(101)
		f := familyV1{d: g.fam.D(), m: g.fam.M(), l: g.fam.L(), w: g.fam.W()}
		for t := 0; t < f.l; t++ {
			tr := fr.Split(int64(t))
			var dirs []float32
			for i := 0; i < f.m; i++ {
				dirs = append(dirs, tr.GaussianVec(f.d)...)
			}
			b := make([]float64, f.m)
			for i := range b {
				b[i] = tr.Float64()
			}
			f.dirs, f.bFrac = append(f.dirs, dirs), append(f.bFrac, b)
		}
		fams[gi] = f
	}
	return fams
}

// encodeV1 returns f's lshfunc.Family/1 section: the shape and width, then
// per table the float32 direction matrix and the offsets.
func (f familyV1) encodeV1(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Magic("lshfunc.Family/1")
	w.Int(f.d)
	w.Int(f.m)
	w.Int(f.l)
	w.F64(f.w)
	for tab := range f.dirs {
		(&vec.Matrix{Data: f.dirs[tab], N: f.m, D: f.d}).Encode(w)
		w.F64s(f.bFrac[tab])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tablesV1 hashes the rows ids of data, g's members at their positions,
// under f's float32 directions as the float32 family projected them
// (per-row float64 dot products, then /w + b), through the same decode
// and keying as today.
func (f familyV1) tablesV1(t *testing.T, g *group, data *vec.Matrix, ids []int) []*lshtable.Table {
	t.Helper()
	var (
		s    hashScratch
		b    lshtable.Builder
		tabs []*lshtable.Table
	)
	proj := make([]float64, f.m)
	for tab := range f.dirs {
		var keys []byte
		for _, id := range ids {
			vec.DotRows(proj, f.dirs[tab], f.d, data.Row(id))
			for i, bf := range f.bFrac[tab] {
				proj[i] = proj[i]/f.w + bf
			}
			keys = g.appendProjectedKeys(keys, proj, 1, &s)
		}
		tb, err := b.BuildFlat(keys, 4*g.lat.CodeLen(), ids)
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tb)
	}
	return tabs
}

// legacyFamilies returns, from an index Build made, the index the float32
// encoder would have written for the same rows, options and seed — its
// groups' tables hashed under the float32 directions (their families
// still the current ones, which swapFamiliesV1 replaces in the bytes) —
// and the float32 families. It fails unless some table differs from
// ix's, or an Upgrade that did not hash again would pass unnoticed.
func legacyFamilies(t *testing.T, ix *Index, opts Options, seed int64) (*Index, []familyV1) {
	t.Helper()
	sn := ix.loadSnap()
	fams := redrawFamiliesV1(ix, opts, seed)
	groups := make([]*group, len(sn.groups))
	stale := false
	for gi, g := range sn.groups {
		lg := *g
		ids := make([]int, len(g.members))
		for i, id := range g.members {
			ids[i] = sn.position(id)
		}
		lg.tables = fams[gi].tablesV1(t, g, sn.data, ids)
		for tab := range lg.tables {
			stale = stale || !bytes.Equal(lg.tables[tab].AppendMapped(nil), g.tables[tab].AppendMapped(nil))
		}
		groups[gi] = &lg
	}
	if !stale {
		t.Fatal("fixture: the float32 directions hash every row as binary16 does")
	}
	legacy := newIndex(ix.opts, sn.data, sn.quant, sn.level1, groups)
	legacy.loadSnap().rowOrder = sn.rowOrder
	return legacy, fams
}

// swapFamiliesV1 replaces each group's lshfunc.Family/2 section in img by
// its lshfunc.Family/1 section.
func swapFamiliesV1(t *testing.T, img []byte, ix *Index, fams []familyV1) []byte {
	t.Helper()
	for gi, g := range ix.loadSnap().groups {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		g.fam.Encode(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(img, buf.Bytes()); n != 1 {
			t.Fatalf("fixture: group %d's family found %d times", gi, n)
		}
		img = bytes.Replace(img, buf.Bytes(), fams[gi].encodeV1(t), 1)
	}
	return img
}

// pagedFamiliesV1 returns the paged image at base in file (a standalone
// bilsh.Disk/3 file at 0, a checkpoint at its header length) with the
// families in its meta section swapped for their lshfunc.Family/1
// sections: the sections laid out again in their order, page-aligned,
// with the offsets, the meta CRC, the file size and the header CRC
// written again — the image writeDiskV3 writes for that meta.
func pagedFamiliesV1(t *testing.T, file []byte, base int, ix *Index, fams []familyV1) []byte {
	t.Helper()
	le := binary.LittleEndian
	nSec := int(le.Uint32(file[base+20:]))
	hdrLen := 32 + 32*nSec + 4
	type section struct {
		entry     int
		kind      uint32
		off, size uint64
	}
	secs := make([]section, nSec)
	for i := range secs {
		e := file[base+32+32*i:]
		secs[i] = section{i, le.Uint32(e), le.Uint64(e[8:]), le.Uint64(e[16:])}
	}
	slices.SortFunc(secs, func(a, b section) int { return int(a.off) - int(b.off) })
	out := slices.Clone(file[:base+hdrLen])
	for _, s := range secs {
		body := file[s.off : s.off+s.size]
		if s.kind == diskSecMeta {
			body = swapFamiliesV1(t, body, ix, fams)
		}
		off := alignPage(int64(len(out)))
		out = append(out, make([]byte, off-int64(len(out)))...)
		out = append(out, body...)
		e := out[base+32+32*s.entry:]
		le.PutUint64(e[8:], uint64(off))
		le.PutUint64(e[16:], uint64(len(body)))
		le.PutUint32(e[24:], crc32.Checksum(body, diskCRC))
	}
	le.PutUint64(out[base+24:], uint64(len(out)))
	le.PutUint32(out[base+hdrLen-4:], crc32.Checksum(out[base:base+hdrLen-4], diskCRC))
	return out
}

// TestUpgradeFamilyV1 writes, for several index shapes, the wire image,
// the paged image and the checkpoint the float32 encoder wrote — the
// families as lshfunc.Family/1 sections, the tables hashed under their
// float32 directions — and holds each to the rules for legacy families:
// the serving reader refuses it with ErrLegacyFormat, and Upgrade
// converts it in place to exactly the file a fresh Build with the same
// rows, options and seed writes, in the same format (a checkpoint with
// the same generation).
func TestUpgradeFamilyV1(t *testing.T) {
	data := testData(t, 420, 20, 481)
	const seed = 482
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"zm", Options{Partitioner: PartitionRPTree, Groups: 3, AutoTuneW: true,
			ProbeMode: ProbeMulti, Probes: 6, Params: lshfunc.Params{M: 6, L: 3, W: 1}}},
		{"e8-hierarchy", Options{Partitioner: PartitionRPTree, Groups: 2, Lattice: LatticeE8,
			ProbeMode: ProbeHierarchy, Params: lshfunc.Params{M: 8, L: 2, W: 1.5}}},
		{"kmeans-sq8", Options{Partitioner: PartitionKMeans, Groups: 3, Quantize: QuantizeSQ8,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ix, err := Build(data, c.opts, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			legacy, fams := legacyFamilies(t, ix, c.opts, seed)

			var want, img bytes.Buffer
			if _, err := ix.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if _, err := legacy.WriteTo(&img); err != nil {
				t.Fatal(err)
			}
			path := writeFile(t, swapFamiliesV1(t, img.Bytes(), legacy, fams))
			if _, err := ReadIndex(bytes.NewReader(readFile(t, path))); !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("ReadIndex of Family/1 families: %v, want ErrLegacyFormat", err)
			}
			from, to, err := Upgrade(path, path)
			if err != nil || from != indexMagic+familyV1Suffix || to != indexMagic {
				t.Fatalf("wire: Upgrade = %q → %q, %v", from, to, err)
			}
			if !bytes.Equal(readFile(t, path), want.Bytes()) {
				t.Fatal("upgraded wire image differs from a fresh Build's")
			}

			path = writeFile(t, pagedFamiliesV1(t, readFile(t, saveV3(t, legacy)), 0, legacy, fams))
			if _, err := OpenDisk(path); !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("OpenDisk of Family/1 families: %v, want ErrLegacyFormat", err)
			}
			from, to, err = Upgrade(path, path)
			if err != nil || from != diskMagicV3+familyV1Suffix || to != diskMagicV3 {
				t.Fatalf("paged: Upgrade = %q → %q, %v", from, to, err)
			}
			if !bytes.Equal(readFile(t, path), readFile(t, saveV3(t, ix))) {
				t.Fatal("upgraded paged image differs from a fresh Build's")
			}

			dir := t.TempDir()
			ckpt := filepath.Join(dir, ckptFileName)
			writeCkpt := func(path string, ix *Index) []byte {
				err := durable.WriteCheckpoint(path, 7, func(f *os.File) error {
					_, err := ix.WriteDiskTo(f)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				return readFile(t, path)
			}
			ckptImg := pagedFamiliesV1(t, writeCkpt(ckpt, legacy), durable.CheckpointHeaderLen, legacy, fams)
			if err := os.WriteFile(ckpt, ckptImg, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDurable(dir, DurableOptions{}); !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("OpenDurable of Family/1 families: %v, want ErrLegacyFormat", err)
			}
			from, to, err = Upgrade(ckpt, ckpt)
			if err != nil || from != diskMagicV3+familyV1Suffix || to != diskMagicV3 {
				t.Fatalf("checkpoint: Upgrade = %q → %q, %v", from, to, err)
			}
			if !bytes.Equal(readFile(t, ckpt), writeCkpt(filepath.Join(t.TempDir(), "fresh.ckpt"), ix)) {
				t.Fatal("upgraded checkpoint differs from a fresh Build's")
			}
			d, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if d.Recovery.Gen != 7 {
				t.Fatalf("upgraded checkpoint recovers generation %d, want 7", d.Recovery.Gen)
			}
			sameQueries(t, ix, d.Index, data)
			d.Close()
		})
	}
}
