package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bilsh/internal/dataset"
	"bilsh/internal/lshfunc"
	"bilsh/internal/lshtable"
	"bilsh/internal/xrand"
)

// TestHashTablesMatchesAppendKeys holds the block-projected keys of
// hashTables to the per-row keys of appendKeys, the chain Insert and the
// queries hash through: over Z^M and E8, with d not a multiple of 4 (each
// projection has an element tail), odd M (a tile's last direction row
// alone) and row counts that leave every remainder of a block.
func TestHashTablesMatchesAppendKeys(t *testing.T) {
	data := testData(t, 300, 13, 71)
	for _, c := range []struct {
		lat LatticeKind
		m   int
	}{{LatticeZM, 5}, {LatticeZM, 8}, {LatticeE8, 8}, {LatticeE8, 16}} {
		t.Run(fmt.Sprintf("%v/M=%d", c.lat, c.m), func(t *testing.T) {
			fam, err := lshfunc.NewFamily(data.D, lshfunc.Params{M: c.m, L: 3, W: 0.7}, xrand.New(int64(c.m)))
			if err != nil {
				t.Fatal(err)
			}
			lat, err := newLattice(c.lat, c.m)
			if err != nil {
				t.Fatal(err)
			}
			g := &group{fam: fam, lat: lat}
			var s, one hashScratch
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 97, 298} {
				ids := make([]int, n)
				for i := range ids {
					ids[i] = (i * 7) % data.N
				}
				err := g.hashTables(&s, ids, func(i int) []float32 { return data.Row(ids[i]) },
					func(tab int, keys []byte, keyLen int) (*lshtable.Table, error) {
						var want []byte
						for _, id := range ids {
							want = g.appendKeys(want, tab, data.Row(id), 1, &one)
						}
						if len(want) != n*keyLen || !bytes.Equal(keys, want) {
							t.Fatalf("%d rows, table %d: block-hashed keys differ from appendKeys'", n, tab)
						}
						return nil, nil
					})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// buildShapeDigests are the SHA-256 digests of WriteTo of each of
// buildShapes, built as BenchmarkBuild builds them. Build's block kernels
// are bit-identical to the per-row ones, so a change to how Build runs
// must leave the files as they are. The digests were last re-pinned when
// the hash families became binary16 (lshfunc.Family/2), a deliberate
// change of the format and of every family. Like the digests of
// readindex_equiv_test.go they bind on amd64 only.
var buildShapeDigests = map[string]string{
	"n=10k,d=960,ZM,L=32":           "8ba40f90a9f8395ffc01804e09f1d7be6123b9747105b0860ce7ec58e753a895",
	"n=100k,d=32,E8,L=8":            "58aa673ac47e2168ee9dbe24113f38b9d561b8481444a3108cd1467536cf150d",
	"n=60k,d=128,ZM,L=10,multi":     "2fb1a5e83dbe23f75fe528090f02dd5bd5a8faf9421b57fa5cccd517d2c8ce34",
	"n=30k,d=128,ZM,L=10,multi,SQ8": "400baf6f43c7d603cf9065808d537f3250f3c1b431ffbb5f5694388d66a8bccb",
}

func TestBuildShapeDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64")
	}
	if raceEnabled {
		t.Skip("full-size builds; the worker-count tests cover Build under the race detector")
	}
	for _, shape := range buildShapes {
		t.Run(shape.name, func(t *testing.T) {
			data, _, err := dataset.Clustered(dataset.DefaultClusteredSpec(shape.n, shape.d), xrand.New(3))
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Build(data, shape.opts, xrand.New(11))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if _, err := ix.WriteTo(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != buildShapeDigests[shape.name] {
				t.Errorf("WriteTo digest %s, pinned %s", got, buildShapeDigests[shape.name])
			}
		})
	}
}

// buildDiskDigests are the SHA-256 digests of the files BuildDisk streams
// from one fixed fvecs input and seed: a Z^M case (RP-tree, tuned widths,
// SQ8 codes) and an E8 case (k-means, tuned widths, hierarchies). The
// streamed build shares its level-1 and per-group construction with
// Build, so a change to either must leave these files as they are. They
// bind on amd64 only, like buildShapeDigests.
var buildDiskDigests = map[string]string{
	"ZM,rptree,tuned,SQ8":       "ceedb1613d847b009896eae955edda0234bf4fe4580cf2028042417c6bc447a9",
	"E8,kmeans,tuned,hierarchy": "baaf0414b82a17e0778b1a47ebd16ea8d3ab28c7d6b80891bad7f322e0609f02",
}

func TestBuildDiskDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64")
	}
	dataPath, _ := writeTestFvecs(t, 1500, 19, 41)
	for name, opts := range map[string]Options{
		"ZM,rptree,tuned,SQ8": {Partitioner: PartitionRPTree, Groups: 5, AutoTuneW: true,
			Quantize: QuantizeSQ8, Params: lshfunc.Params{M: 6, L: 4, W: 1}},
		"E8,kmeans,tuned,hierarchy": {Partitioner: PartitionKMeans, Groups: 4, AutoTuneW: true,
			Lattice: LatticeE8, ProbeMode: ProbeHierarchy, Params: lshfunc.Params{M: 8, L: 3, W: 1}},
	} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "index.disk")
			if _, err := BuildDisk(dataPath, out, opts, OutOfCoreConfig{SampleSize: 700}, xrand.New(13)); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != buildDiskDigests[name] {
				t.Errorf("BuildDisk digest %s, pinned %s", got, buildDiskDigests[name])
			}
		})
	}
}

// hammingBuildDigest is the SHA-256 digest of WriteTo of a MetricHamming
// Build: the global sketches (lshfunc.Sketcher.SketchAll) and the
// bit-sampling tables over them. d = 37 leaves a tail after every block
// of four dimensions. It binds on amd64 only, like buildShapeDigests.
const hammingBuildDigest = "6154a3ec49475ddd1dbacebdac9920dc9eee932a99adfefe4e9239a2390e1b34"

func TestHammingBuildDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64")
	}
	data := testData(t, 1200, 37, 43)
	ix, err := Build(data, Options{
		Metric: MetricHamming, Bits: 192, Partitioner: PartitionRPTree, Groups: 4,
		ProbeMode: ProbeMulti, Params: lshfunc.Params{M: 12, L: 6},
	}, xrand.New(47))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if _, err := ix.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != hammingBuildDigest {
		t.Errorf("WriteTo digest %s, pinned %s", got, hammingBuildDigest)
	}
}
