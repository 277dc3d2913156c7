// Package diameter approximates the diameter Δ(S) of a high-dimensional
// point set with the iterative algorithm of Egecioglu & Kalantari
// (Information Processing Letters, 1989), which the paper uses inside the
// RP-tree mean split rule (Section IV-A2).
//
// The algorithm produces an increasing series r_1 < r_2 < ... < r_m with
//
//	r_m ≤ Δ(S) ≤ min(√3·r_1, √(5−2√3)·r_m)
//
// Each iteration costs O(|S|) distance evaluations, so m iterations cost
// O(m·|S|); the paper reports m as small as 40 giving good precision, and
// in practice the series converges much sooner, so we stop early when an
// iteration stops improving.
package diameter

import (
	"math"

	"bilsh/internal/chunk"
	"bilsh/internal/vec"
)

// UpperFactor is √(5−2√3): multiplying the final r_m by it bounds Δ above.
var UpperFactor = math.Sqrt(5 - 2*math.Sqrt(3))

// Result reports the approximation and its certified bracket.
type Result struct {
	// Lower is r_m, a certified lower bound on the true diameter (it is the
	// distance between two actual points of the set).
	Lower float64
	// Upper is min(√3·r_1, √(5−2√3)·r_m), a certified upper bound.
	Upper float64
	// Iterations actually performed (≤ m requested).
	Iterations int
	// A and B are indices (into ids, or into the matrix when ids is nil)
	// of the far pair realizing Lower.
	A, B int
}

// Approx runs up to m iterations over the rows of data whose row ids are
// listed in ids (all rows when ids is nil), starting from the row
// farthest from centroid, which is the rows' mean: the caller computes it
// once for its own use too. Sets with fewer than two points yield a zero
// Result. The ids are int32, as vec.SqDistToRows takes them, so a caller
// that scans the same rows (the RP-tree's split) converts them once.
func Approx(data *vec.Matrix, ids []int32, centroid []float32, m int) Result {
	if ids == nil {
		ids = make([]int32, data.N)
		for i := range ids {
			ids[i] = int32(i)
		}
	}
	if len(ids) < 2 {
		return Result{}
	}
	if m < 1 {
		m = 1
	}
	s := newScan(data, ids)

	res := Result{}
	// Start from the point farthest from the centroid, the standard E-K
	// initialization: it guarantees the √3 bound on r_1.
	start, _ := s.farthest(centroid, -1)

	var r1 float64
	p := start
	for it := 0; it < m; it++ {
		// One iteration: from point p, find the farthest point q; r = |p-q|.
		q, r2 := s.farthest(s.row(p), p)
		r := math.Sqrt(r2)
		res.Iterations = it + 1
		if it == 0 {
			r1 = r
		}
		if r > res.Lower {
			res.Lower = r
			res.A, res.B = p, q
		} else {
			// No improvement: the series has converged.
			break
		}
		p = q
	}
	res.Upper = math.Min(math.Sqrt(3)*r1, UpperFactor*res.Lower)
	if res.Upper < res.Lower {
		// The √3·r1 bound only certifies the first iterate; the monotone
		// series can exceed it, in which case Lower itself is the better
		// upper estimate (Δ ≥ Lower always, so clamp).
		res.Upper = UpperFactor * res.Lower
	}
	return res
}

// scanBlock is how many rows a chunk of a farthest-point scan measures per
// vec.SqDistToRows call.
const scanBlock = 256

// scan is the state of Approx's farthest-point scans over one point set:
// the points' row ids, cut into k chunks, and a distance buffer per chunk.
type scan struct {
	data *vec.Matrix
	ids  []int32 // point i is row ids[i]
	k    int
	buf  []float64 // chunk c's distances in buf[c*scanBlock:]
}

func newScan(data *vec.Matrix, ids []int32) *scan {
	k := chunk.Count(len(ids))
	return &scan{data: data, ids: ids, k: k, buf: make([]float64, k*scanBlock)}
}

// row returns point i.
func (s *scan) row(i int) []float32 { return s.data.Row(int(s.ids[i])) }

// farthest returns the first of the points i ≠ skip at the largest
// squared distance from v, and that squared distance. The scan is cut
// into chunks on every core, each measuring its points scanBlock at a time
// through vec.SqDistToRows (bit for bit vec.SqDist); each chunk keeps its
// first farthest point and the chunks are compared in order, so the first
// index wins a tie whatever the cut.
func (s *scan) farthest(v []float32, skip int) (int, float64) {
	type best struct {
		i int
		d float64
	}
	parts := make([]best, s.k)
	chunk.Run(len(s.ids), s.k, func(c, lo, hi int) {
		ds := s.buf[c*scanBlock : (c+1)*scanBlock]
		b := best{-1, -1}
		for from := lo; from < hi; from += scanBlock {
			to := min(from+scanBlock, hi)
			vec.SqDistToRows(ds[:to-from], s.data.Data, s.data.D, s.ids[from:to], v)
			for j, d := range ds[:to-from] {
				if i := from + j; i != skip && d > b.d {
					b = best{i, d}
				}
			}
		}
		parts[c] = b
	})
	b := parts[0]
	for _, p := range parts[1:] {
		if p.d > b.d {
			b = p
		}
	}
	return b.i, b.d
}

// Exact computes the true diameter by the O(n²) pairwise scan. It exists
// for tests and for tiny leaf sets where the scan is cheaper than the
// iteration bookkeeping.
func Exact(data *vec.Matrix, idx []int) float64 {
	n := data.N
	at := func(i int) []float32 { return data.Row(i) }
	if idx != nil {
		n = len(idx)
		at = func(i int) []float32 { return data.Row(idx[i]) }
	}
	var best float64
	for i := 0; i < n; i++ {
		vi := at(i)
		for j := i + 1; j < n; j++ {
			if d := vec.SqDist(vi, at(j)); d > best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}
