// Package tuner estimates per-cluster LSH parameters, playing the role of
// the statistical model of Dong et al. that the paper invokes at the start
// of Section IV-B ("we use an automatic parameter tuning approach to
// compute the optimal LSH parameters for each cell").
//
// Substitution note (see DESIGN.md): Dong et al. fit a full quality/runtime
// model from a sample. This tuner keeps the part the bi-level algorithm
// actually consumes — a per-cluster bucket width W — and derives it from
// the same ingredients: the sampled k-NN radius of the cluster and the
// closed-form p-stable collision probability. Choosing W so that a true
// k-th neighbor collides with the query in one table with a target
// probability directly trades recall against selectivity, which is the
// axis all the paper's figures sweep.
package tuner

import (
	"cmp"
	"fmt"
	"math"

	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// Config bounds the sampling effort.
type Config struct {
	// SamplePoints caps how many cluster members serve as pivot samples
	// (default 64).
	SamplePoints int
	// SampleAgainst caps how many members each pivot is compared to
	// (default 1024).
	SampleAgainst int
}

func (c *Config) fill() {
	if c.SamplePoints <= 0 {
		c.SamplePoints = 64
	}
	if c.SampleAgainst <= 0 {
		c.SampleAgainst = 1024
	}
}

// Estimate is the tuner's output for one cluster.
type Estimate struct {
	// W is the recommended bucket width for Eq. 2.
	W float64
	// KDist is the sampled mean distance to the k-th nearest neighbor.
	KDist float64
	// MeanDist is the sampled mean pairwise distance (a scale reference).
	MeanDist float64
	// Samples is the number of pivots actually used.
	Samples int
}

// CollisionProb returns the probability that two points at distance r fall
// into the same bucket of a single p-stable hash h(v) = ⌊(a·v+b)/W⌋ with
// Gaussian a — the closed form used by Datar et al. and Dong et al.:
//
//	p(c) = 2Φ(c) − 1 − (2/(√(2π)·c))·(1 − e^(−c²/2)),  c = W/r.
func CollisionProb(r, w float64) float64 {
	if r <= 0 {
		return 1
	}
	if w <= 0 {
		return 0
	}
	c := w / r
	return 2*phi(c) - 1 - 2/(math.Sqrt(2*math.Pi)*c)*(1-math.Exp(-c*c/2))
}

// phi is the standard normal CDF.
func phi(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// EstimateW picks a bucket width for the cluster consisting of the given
// member rows, such that a point at the sampled k-NN radius shares all M
// hash values with the query with probability targetRecall (per table).
// Clusters too small to sample fall back to W = MeanDist (and ultimately
// to 1.0 for degenerate single-point clusters).
func EstimateW(data *vec.Matrix, members []int, k, m int, targetRecall float64, cfg Config, rng *xrand.RNG) (Estimate, error) {
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

	// Each pivot's squared distances to all of others come from one
	// vec.SqDistToRows call; the pivot itself is then skipped. Each is
	// SqDist of the pair (its order does not change a squared difference),
	// so the square root is vec.Dist's.
	ids := make([]int32, len(others))
	for i, q := range others {
		ids[i] = int32(q)
	}
	sq := make([]float64, len(others))
	var kSum, meanSum float64
	var meanN int
	dists := make([]float64, 0, len(others))
	for _, pi := range pivots {
		p := members[pi]
		vec.SqDistToRows(sq, data.Data, data.D, ids, data.Row(p))
		dists = dists[:0]
		for i, q := range others {
			if q == p {
				continue
			}
			d := math.Sqrt(sq[i])
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

// kthSmallest returns xs[k-1] of xs sorted by slices.Sort, for 1 ≤ k ≤
// len(xs), without sorting it all: a quickselect that keeps only the side
// of each pivot holding rank k, with the values equal to the pivot set
// apart so that runs of duplicates end it early. It reorders xs. Values it
// counts as equal, as slices.Sort does (cmp.Compare), are the same float
// here: distances are never −0, and any NaN makes the caller's sum NaN.
func kthSmallest(xs []float64, k int) float64 {
	k-- // as an index
	for len(xs) > 1 {
		// Median of three, which sorted input, the common worst case
		// of a fixed pivot, does not defeat.
		a, b, c := xs[0], xs[len(xs)/2], xs[len(xs)-1]
		if cmp.Less(b, a) {
			a, b = b, a
		}
		if cmp.Less(c, b) {
			b = c
			if cmp.Less(b, a) {
				b = a
			}
		}
		pivot := b
		// Three-way partition: xs[:lt] < pivot, xs[lt:gt] == pivot,
		// xs[gt:] > pivot.
		lt, gt := 0, len(xs)
		for i := 0; i < gt; {
			switch cmp.Compare(xs[i], pivot) {
			case -1:
				xs[lt], xs[i] = xs[i], xs[lt]
				lt++
				i++
			case 1:
				gt--
				xs[i], xs[gt] = xs[gt], xs[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			xs = xs[:lt]
		case k >= gt:
			xs, k = xs[gt:], k-gt
		default:
			return xs[k]
		}
	}
	return xs[0]
}

// ScaleForSelectivity adjusts a base estimate multiplicatively: the
// experiments sweep W over a grid of multipliers of the tuned value, which
// keeps per-cluster ratios intact while moving the global operating point.
func ScaleForSelectivity(base Estimate, mult float64) Estimate {
	out := base
	out.W = base.W * mult
	return out
}
