package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
