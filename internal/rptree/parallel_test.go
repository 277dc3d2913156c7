package rptree

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"bilsh/internal/chunk"
	"bilsh/internal/dataset"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
	"bilsh/internal/xrand"
)

// outlierData is four clusters plus a far cluster of 1 % of the rows. The
// far rows make a cell's diameter dwarf its average interpoint distance,
// so the mean rule splits the cells that hold them by distance to the
// mean, and the rest by projection.
func outlierData(t *testing.T, n, d int) *vec.Matrix {
	t.Helper()
	data, _, err := dataset.Clustered(dataset.ClusteredSpec{N: n, D: d, Clusters: 4, IntrinsicDim: 3,
		Aspect: 4, NoiseSigma: 0.02, Spread: 10, PowerLaw: 0.5}, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(42)
	for i := 0; i < n; i += 100 {
		row := data.Row(i)
		for j := range row {
			row[j] = 1000 + float32(rng.NormFloat64())
		}
	}
	return data
}

func encodeTree(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	tree.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildIndependentOfWorkerCount builds trees whose upper splits are
// large enough to be cut into chunks on every core, under both rules and
// both kinds of split, and requires the tree (through its codec) and the
// assignment a single worker builds at GOMAXPROCS 2 and 8.
func TestBuildIndependentOfWorkerCount(t *testing.T) {
	n := 8*chunk.MinRows + 37 // four times the smallest split that goes wide
	data := outlierData(t, n, 6)
	for _, rule := range []Rule{RuleMean, RuleMax} {
		t.Run(rule.String(), func(t *testing.T) {
			var want []byte
			var wantLeafOf []int
			for _, procs := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(procs)
				tree, asg := Build(data, Options{Rule: rule, Leaves: 12}, xrand.New(43))
				runtime.GOMAXPROCS(prev)
				got := encodeTree(t, tree)
				if want == nil {
					want, wantLeafOf = got, asg.LeafOf
					checkWideSplits(t, tree, rule)
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("tree at GOMAXPROCS %d differs from one worker's", procs)
				}
				if !slices.Equal(asg.LeafOf, wantLeafOf) {
					t.Fatalf("assignment at GOMAXPROCS %d differs from one worker's", procs)
				}
			}
		})
	}
}

// checkWideSplits requires that the splits large enough to go wide include
// both kinds the rule makes: projection splits, and under the mean rule
// distance-to-mean splits too.
func checkWideSplits(t *testing.T, tree *Tree, rule Rule) {
	t.Helper()
	var proj, mean int
	for _, nd := range tree.nodes {
		if nd.leaf >= 0 || nd.size < 2*chunk.MinRows {
			continue
		}
		if nd.mean != nil {
			mean++
		} else {
			proj++
		}
	}
	if proj == 0 || (rule == RuleMean) != (mean > 0) {
		t.Fatalf("rule %v: %d projection and %d distance-to-mean splits of %d rows or more", rule, proj, mean, 2*chunk.MinRows)
	}
}

// TestCentroidIsMean pins the split's centroid, summed a range of
// dimensions per worker, to vec.Matrix.Mean for every number of workers.
func TestCentroidIsMean(t *testing.T) {
	data := outlierData(t, 3000, 13)
	idx := xrand.New(44).Sample(data.N, 2500)
	want := data.Mean(idx)
	for k := 1; k <= 14; k++ {
		if got := centroid(data, idx, k); !slices.Equal(got, want) {
			t.Fatalf("centroid over %d workers differs from Mean", k)
		}
	}
}
