package rptree

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"bilsh/internal/chunk"
	"bilsh/internal/dataset"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// oracleSqDistsTo is the distance-to-mean loop split ran before
// sqDistsTo: one vec.SqDist per row.
func oracleSqDistsTo(dists []float64, data *vec.Matrix, idx []int, v []float32, k int) {
	chunk.Run(len(idx), k, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			dists[j] = vec.SqDist(data.Row(idx[j]), v)
		}
	})
}

// TestSqDistsToMatchesOracle requires sqDistsTo's batched scan to give the
// oracle's distances to the bit, under every vec kernel and chunk count,
// over rows listed out of order and with and without an element tail.
func TestSqDistsToMatchesOracle(t *testing.T) {
	prev := vec.KernelName()
	defer func() {
		if err := vec.UseKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, kern := range vec.KernelNames() {
		if err := vec.UseKernel(kern); err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{3, 6, 13, 128} {
			data := outlierData(t, 3*chunk.MinRows+5, d)
			idx := xrand.New(int64(d)).Perm(data.N)[:2*chunk.MinRows+3]
			v := data.Mean(idx)
			for _, k := range []int{1, 2, 3} {
				got := make([]float64, len(idx))
				want := make([]float64, len(idx))
				sqDistsTo(got, make([]int32, len(idx)), data, idx, v, k)
				oracleSqDistsTo(want, data, idx, v, k)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s d=%d k=%d row %d: %v, oracle %v", kern, d, k, idx[j], got[j], want[j])
					}
				}
			}
		}
	}
}

// treeDigests are the SHA-256 digests of the encoded trees of
// TestTreeDigests, taken before split and the diameter scans computed
// their distances through vec.SqDistToRows. The kernels are bit-identical
// to the per-row distances they replaced, so the trees must be too.
var treeDigests = map[string]string{
	"outlier,d=6,mean":     "ac55db8f4cbda2d51a3172b80bb4a77d4b8da739dc5280110a69022cade35f23",
	"outlier,d=6,max":      "77891be92dca1ad1ca51e51bb071f8195a2b65e5fb164353a628ba25506c8f41",
	"outlier,d=13,mean":    "ce2e540c2a2a80eb4e26c573da4c84f190d0ad340d29b02328a738f7b9c272c5",
	"outlier,d=13,max":     "6144fbc182838d40380c9c658fd44a94cc68fc61f1f6a9ed807d8ee8ae5f689d",
	"clustered,d=128,mean": "2784bd7a55c5744c2e2bee1a82540053a2522f334111d08893ebced126d78cc8",
	"clustered,d=128,max":  "82afcafea3e6aa3b0fcca9dcd3c5d167b461fd796d0b41f12a2af2d473be4c57",
}

// TestTreeDigests pins the trees of both rules over data whose cells
// split by distance to the mean as well as by projection, large enough
// that the upper splits go wide, at d with and without an element tail,
// and at the repository benchmark's scan shape.
func TestTreeDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64")
	}
	outlier6 := outlierData(t, 8*chunk.MinRows+37, 6)
	outlier13 := outlierData(t, 8*chunk.MinRows+37, 13)
	scan, _, err := dataset.Clustered(dataset.DefaultClusteredSpec(20000, 128), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data *vec.Matrix
	}{{"outlier,d=6", outlier6}, {"outlier,d=13", outlier13}, {"clustered,d=128", scan}} {
		for _, rule := range []Rule{RuleMean, RuleMax} {
			name := fmt.Sprintf("%s,%v", c.name, rule)
			tree, _ := Build(c.data, Options{Rule: rule, Leaves: 16}, xrand.New(43))
			sum := sha256.Sum256(encodeTree(t, tree))
			if got := hex.EncodeToString(sum[:]); got != treeDigests[name] {
				t.Errorf("%s: tree digest %s, pinned %s", name, got, treeDigests[name])
			}
		}
	}
}
