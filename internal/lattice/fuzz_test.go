package lattice_test

import (
	"math"
	"testing"

	"bilsh/internal/lattice"
	"bilsh/internal/quality"
)

// Fuzz targets for the Conway–Sloane E8 decoder and its D8 coset decoder.
// Each decoded point must
// satisfy three properties for arbitrary finite input:
//
//   - membership: the output is a lattice point (IsE8);
//   - idempotence: a lattice point is its own nearest lattice point, so
//     DECODE(Center(c)) == c exactly (Eq. 9's fixed-point requirement —
//     the hierarchy's halve-and-decode recursion terminates only because
//     of it);
//   - local optimality: the decoded point is at least as close to the
//     input as every one of its kissing neighbors (the minimal vectors).
//     The decoder is an exact nearest-point algorithm, and for a lattice
//     "closer than all kissing neighbors of the output" is the first-order
//     check that the parity repair picked the right coordinate.
//
// The seed corpus is drawn from the quality harness's generators — real
// projected-coordinate distributions, not just synthetic corner cases.

// fuzzBound keeps inputs in the range where doubled int32 codes cannot
// overflow and float rounding stays exact.
const fuzzBound = 1e6

// seedCorpus returns rows of a quality-harness dataset as 8-dim blocks.
func seedCorpus(tb testing.TB) [][8]float64 {
	tb.Helper()
	train, _, _, err := quality.Generators["manifold"](32, 1, 0, 16, 3)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][8]float64, 0, train.N)
	for i := 0; i < train.N; i++ {
		row := train.Row(i)
		var y [8]float64
		for j := range y {
			y[j] = float64(row[j])
		}
		out = append(out, y)
	}
	return out
}

func fuzzable(y [8]float64) bool {
	for _, v := range y {
		if math.IsNaN(v) || math.Abs(v) > fuzzBound {
			return false
		}
	}
	return true
}

func sqDistTo(y [8]float64, center []float64) float64 {
	var d float64
	for i, v := range y {
		e := v - center[i]
		d += e * e
	}
	return d
}

func FuzzDecodeE8(f *testing.F) {
	for _, y := range seedCorpus(f) {
		f.Add(y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7])
	}
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
	f.Add(0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5)
	f.Add(0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.75)

	e8 := lattice.NewE8(8)
	mins := lattice.MinVectors()
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i float64) {
		y := [8]float64{a, b, c, d, e, g, h, i}
		if !fuzzable(y) {
			t.Skip()
		}
		p := lattice.DecodeE8(y)
		if !lattice.IsE8(p) {
			t.Fatalf("DecodeE8(%v) = %v is not an E8 point", y, p)
		}

		// Idempotence: the decoded point's own coordinates decode to it.
		var back [8]float64
		for j, v := range e8.Center(p[:]) {
			back[j] = v
		}
		if again := lattice.DecodeE8(back); again != p {
			t.Fatalf("DecodeE8 not idempotent: %v decodes to %v, whose center decodes to %v", y, p, again)
		}

		// Local optimality among the 240 kissing neighbors.
		center := e8.Center(p[:])
		best := sqDistTo(y, center)
		for _, mv := range mins {
			var q [8]int32
			for j := range q {
				q[j] = p[j] + mv[j]
			}
			if d := sqDistTo(y, e8.Center(q[:])); d < best-1e-9 {
				t.Fatalf("DecodeE8(%v) = %v at sqdist %.12f, but neighbor %v is closer at %.12f", y, p, best, q, d)
			}
		}
	})
}

// FuzzDecodeDn checks the D_8 decoder DecodeE8 runs once per coset
// (E8 = D8 ∪ (D8+½)), on its own: the same three properties on both cosets,
// plus the returned squared distance. A parity-repair bug in one coset can
// hide behind the other in DecodeE8's pick-the-closer step.
func FuzzDecodeDn(f *testing.F) {
	for _, y := range seedCorpus(f) {
		f.Add(y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7])
	}
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(-0.49, 0.51, 1.5, -1.5, 0.0, 0.0, 0.0, 0.99)

	// D8's 112 minimal vectors are E8's with integer (even doubled) entries.
	var mins [][8]int32
	for _, mv := range lattice.MinVectors() {
		if mv[0]&1 == 0 {
			mins = append(mins, mv)
		}
	}
	e8 := lattice.NewE8(8)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i float64) {
		y := [8]float64{a, b, c, d, e, g, h, i}
		if !fuzzable(y) {
			t.Skip()
		}
		for _, offset := range []float64{0, 0.5} {
			p, dist := lattice.NearestD8(y, offset)
			// Doubled D8 points are all even, D8+½ points all odd; both
			// cosets have doubled coordinate sum ≡ 0 mod 4, as IsE8 checks.
			parity := int32(2 * offset)
			for _, v := range p {
				if v&1 != parity {
					t.Fatalf("nearestD8(%v, %v) = %v is not in the coset", y, offset, p)
				}
			}
			if !lattice.IsE8(p) {
				t.Fatalf("nearestD8(%v, %v) = %v fails the D8 parity", y, offset, p)
			}
			center := e8.Center(p[:])
			best := sqDistTo(y, center)
			if math.Abs(dist-best) > 1e-9*(1+best) {
				t.Fatalf("nearestD8(%v, %v) reports sqdist %.12f, the point is at %.12f", y, offset, dist, best)
			}

			// Idempotence.
			var back [8]float64
			copy(back[:], center)
			if again, _ := lattice.NearestD8(back, offset); again != p {
				t.Fatalf("nearestD8 not idempotent: %v decodes to %v, whose center decodes to %v", y, p, again)
			}

			// Local optimality among the 2·8·7 = 112 kissing neighbors.
			for _, mv := range mins {
				var q [8]int32
				for j := range q {
					q[j] = p[j] + mv[j]
				}
				if d := sqDistTo(y, e8.Center(q[:])); d < best-1e-9 {
					t.Fatalf("nearestD8(%v, %v) = %v at sqdist %.12f, but neighbor %v is closer at %.12f", y, offset, p, best, q, d)
				}
			}
		}
	})
}
