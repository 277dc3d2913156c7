package tuner

import (
	"fmt"
	"math"
	"testing"

	"bilsh/internal/dataset"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// oracleEstimateW is EstimateW as it was before it scanned each pivot's
// distances with one vec.SqDistToRows call: one vec.Dist per pair,
// verbatim but for the name. It is the oracle the batched scan must
// reproduce to the bit.
func oracleEstimateW(data *vec.Matrix, members []int, k, m int, targetRecall float64, cfg Config, rng *xrand.RNG) (Estimate, error) {
	if k <= 0 || m <= 0 {
		return Estimate{}, fmt.Errorf("tuner: k=%d m=%d must be positive", k, m)
	}
	if targetRecall <= 0 || targetRecall >= 1 {
		return Estimate{}, fmt.Errorf("tuner: targetRecall=%g must be in (0,1)", targetRecall)
	}
	cfg.fill()

	est := Estimate{W: 1}
	if len(members) < 2 {
		return est, nil
	}
	pivots := rng.Sample(len(members), cfg.SamplePoints)
	others := members
	if len(others) > cfg.SampleAgainst {
		idx := rng.Sample(len(members), cfg.SampleAgainst)
		others = make([]int, len(idx))
		for i, j := range idx {
			others[i] = members[j]
		}
	}

	var kSum, meanSum float64
	var meanN int
	dists := make([]float64, 0, len(others))
	for _, pi := range pivots {
		p := members[pi]
		dists = dists[:0]
		for _, q := range others {
			if q == p {
				continue
			}
			d := vec.Dist(data.Row(p), data.Row(q))
			dists = append(dists, d)
			meanSum += d
			meanN++
		}
		if len(dists) == 0 {
			continue
		}
		kSum += kthSmallest(dists, min(k, len(dists)))
		est.Samples++
	}
	if est.Samples == 0 || meanN == 0 {
		return est, nil
	}
	est.KDist = kSum / float64(est.Samples)
	est.MeanDist = meanSum / float64(meanN)
	if est.KDist <= 0 {
		// Duplicate-heavy cluster: any W works; use the scale reference.
		est.W = math.Max(est.MeanDist, 1e-6)
		return est, nil
	}

	// Solve p(W/KDist)^m = targetRecall for W by bisection; p is
	// monotonically increasing in W.
	perDim := math.Pow(targetRecall, 1/float64(m))
	lo, hi := 1e-9*est.KDist, 1e6*est.KDist
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if CollisionProb(est.KDist, mid) < perDim {
			lo = mid
		} else {
			hi = mid
		}
	}
	est.W = (lo + hi) / 2
	return est, nil
}

// TestEstimateWMatchesOracle requires the batched EstimateW to return the
// oracle's Estimate exactly, under every vec kernel: members a shuffled
// subset of the rows, clusters below and above SampleAgainst (where the
// pivots may or may not be among others), a two-point cluster, a cluster
// of duplicates, and d with and without an element tail.
func TestEstimateWMatchesOracle(t *testing.T) {
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
		for _, d := range []int{3, 13, 64, 960} {
			data := dataset.Gaussian(700, d, 1, xrand.New(int64(d)))
			copy(data.Row(1), data.Row(0)) // a duplicate pair
			shuffled := xrand.New(2).Perm(data.N)
			dup := []int{0, 1, 0, 1}
			for _, c := range []struct {
				name    string
				members []int
				cfg     Config
			}{
				{"all", shuffled, Config{}},
				{"subset", shuffled[:300], Config{}},
				{"sample-against", shuffled[:500], Config{SamplePoints: 40, SampleAgainst: 90}},
				{"pair", shuffled[:2], Config{}},
				{"duplicates", dup, Config{}},
			} {
				for _, k := range []int{1, 10} {
					got, err := EstimateW(data, c.members, k, 8, 0.3, c.cfg, xrand.New(9))
					if err != nil {
						t.Fatal(err)
					}
					want, err := oracleEstimateW(data, c.members, k, 8, 0.3, c.cfg, xrand.New(9))
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s d=%d %s k=%d: Estimate %+v, oracle %+v", kern, d, c.name, k, got, want)
					}
				}
			}
		}
	}
}
