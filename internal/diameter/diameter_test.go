package diameter

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"bilsh/internal/chunk"
	"bilsh/internal/dataset"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

func TestApproxTinySets(t *testing.T) {
	m := vec.FromRows([][]float32{{1, 1}})
	if r := Approx(m, nil, m.Mean(nil), 10); r.Lower != 0 || r.Upper != 0 {
		t.Fatalf("single point diameter = %+v, want zeros", r)
	}
	two := vec.FromRows([][]float32{{0, 0}, {3, 4}})
	r := Approx(two, nil, two.Mean(nil), 10)
	if math.Abs(r.Lower-5) > 1e-6 {
		t.Fatalf("two-point Lower = %v, want 5", r.Lower)
	}
}

func TestApproxExactOnColinear(t *testing.T) {
	// Points on a segment: the diameter endpoints are found in one hop.
	m := vec.FromRows([][]float32{{0}, {1}, {2}, {7}, {3}})
	r := Approx(m, nil, m.Mean(nil), 40)
	if r.Lower != 7 {
		t.Fatalf("colinear Lower = %v, want 7", r.Lower)
	}
}

// Property: the certified bracket Lower <= exact <= Upper holds, and Lower
// is realized by an actual point pair.
func TestBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 3 + rng.Intn(80)
		d := 1 + rng.Intn(12)
		data := dataset.Gaussian(n, d, 1+rng.Float64()*3, rng.Split(1))
		r := Approx(data, nil, data.Mean(nil), 40)
		exact := Exact(data, nil)
		if r.Lower > exact+1e-6 {
			return false // lower bound violated
		}
		if r.Upper < exact-1e-6*exact {
			return false // upper bound violated
		}
		realized := vec.Dist(data.Row(r.A), data.Row(r.B))
		return math.Abs(realized-r.Lower) < 1e-6*(1+r.Lower)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxQuality(t *testing.T) {
	// On realistic clustered data with m=40 the approximation should be
	// within the theoretical factor and practically much closer.
	rng := xrand.New(17)
	data, _, err := dataset.Clustered(dataset.DefaultClusteredSpec(400, 24), rng)
	if err != nil {
		t.Fatal(err)
	}
	r := Approx(data, nil, data.Mean(nil), 40)
	exact := Exact(data, nil)
	if r.Lower < 0.8*exact {
		t.Fatalf("approximation too loose: %v vs exact %v", r.Lower, exact)
	}
}

func TestApproxWithIndexSubset(t *testing.T) {
	m := vec.FromRows([][]float32{{0}, {100}, {1}, {2}})
	// Excluding row 1 the diameter is 2.
	r := Approx(m, []int32{0, 2, 3}, m.Mean([]int{0, 2, 3}), 10)
	if r.Lower != 2 {
		t.Fatalf("subset Lower = %v, want 2", r.Lower)
	}
	if e := Exact(m, []int{0, 2, 3}); e != 2 {
		t.Fatalf("subset Exact = %v, want 2", e)
	}
}

func TestEarlyStop(t *testing.T) {
	// On a perfectly symmetric set the series converges immediately; the
	// iteration count must reflect early termination rather than m.
	m := vec.FromRows([][]float32{{-1, 0}, {1, 0}, {0, 0.5}})
	r := Approx(m, nil, m.Mean(nil), 1000)
	if r.Iterations >= 1000 {
		t.Fatalf("no early stop: %d iterations", r.Iterations)
	}
	if r.Lower != 2 {
		t.Fatalf("Lower = %v, want 2", r.Lower)
	}
}

func TestUpperFactorValue(t *testing.T) {
	want := math.Sqrt(5 - 2*math.Sqrt(3))
	if UpperFactor != want {
		t.Fatalf("UpperFactor = %v, want %v", UpperFactor, want)
	}
}

// TestApproxIndependentOfWorkerCount runs the farthest-point scans over
// enough rows to be cut into chunks: the result must be the one a single
// worker finds, and where several rows tie at the farthest distance, in
// different chunks, the first of them must win.
func TestApproxIndependentOfWorkerCount(t *testing.T) {
	n := 4*chunk.MinRows + 3
	ties := vec.NewMatrix(n, 2)
	for _, i := range []int{100, n / 2, n - 1} {
		copy(ties.Row(i), []float32{5, 5})
	}
	spread := dataset.Gaussian(n, 6, 2, xrand.New(9))
	for _, tc := range []struct {
		name string
		data *vec.Matrix
		idx  []int
		want Result // zero: whatever one worker finds
	}{
		{"ties", ties, nil, Result{Lower: math.Sqrt(50), A: 100, B: 0}},
		{"gaussian", spread, nil, Result{}},
		{"subset", spread, xrand.New(10).Sample(n, n-7), Result{}},
	} {
		var first Result
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got := Approx(tc.data, rowIDs(tc.idx), tc.data.Mean(tc.idx), 40)
			runtime.GOMAXPROCS(prev)
			if procs == 1 {
				first = got
			}
			if got != first {
				t.Fatalf("%s: GOMAXPROCS %d found %+v, one worker %+v", tc.name, procs, got, first)
			}
		}
		if tc.want != (Result{}) && (first.Lower != tc.want.Lower || first.A != tc.want.A || first.B != tc.want.B) {
			t.Fatalf("%s: %+v, want far pair %d, %d at %v", tc.name, first, tc.want.A, tc.want.B, tc.want.Lower)
		}
	}
}
