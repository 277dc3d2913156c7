package diameter

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"bilsh/internal/chunk"
	"bilsh/internal/dataset"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// oracleApprox and oracleFarthest are Approx and its farthest-point scan
// as they were before the scan measured its rows through
// vec.SqDistToRows: one vec.SqDist per row, verbatim but for the names.
// They are the oracle the batched scan must reproduce exactly.
func oracleApprox(data *vec.Matrix, idx []int, centroid []float32, m int) Result {
	n := data.N
	at := func(i int) []float32 { return data.Row(i) }
	if idx != nil {
		n = len(idx)
		at = func(i int) []float32 { return data.Row(idx[i]) }
	}
	if n < 2 {
		return Result{}
	}
	if m < 1 {
		m = 1
	}

	res := Result{}
	start, _ := oracleFarthest(n, at, centroid, -1)

	var r1 float64
	p := start
	for it := 0; it < m; it++ {
		q, r2 := oracleFarthest(n, at, at(p), p)
		r := math.Sqrt(r2)
		res.Iterations = it + 1
		if it == 0 {
			r1 = r
		}
		if r > res.Lower {
			res.Lower = r
			res.A, res.B = p, q
		} else {
			break
		}
		p = q
	}
	res.Upper = math.Min(math.Sqrt(3)*r1, UpperFactor*res.Lower)
	if res.Upper < res.Lower {
		res.Upper = UpperFactor * res.Lower
	}
	return res
}

func oracleFarthest(n int, at func(int) []float32, v []float32, skip int) (int, float64) {
	type best struct {
		i int
		d float64
	}
	k := chunk.Count(n)
	parts := make([]best, k)
	chunk.Run(n, k, func(c, lo, hi int) {
		b := best{-1, -1}
		for i := lo; i < hi; i++ {
			if i == skip {
				continue
			}
			if d := vec.SqDist(v, at(i)); d > b.d {
				b = best{i, d}
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

// rowIDs returns idx as the int32 row ids Approx takes (nil for nil).
func rowIDs(idx []int) []int32 {
	if idx == nil {
		return nil
	}
	ids := make([]int32, len(idx))
	for i, p := range idx {
		ids[i] = int32(p)
	}
	return ids
}

// TestApproxMatchesOracle requires Approx to return the oracle's Result
// exactly under every vec kernel and at GOMAXPROCS 1, 2 and 8: over sets
// small enough to scan inline and large enough to be cut into chunks and
// into several scan blocks per chunk, all rows and a shuffled subset, d
// with and without an element tail, and far points tied in different
// chunks and blocks, where the first must win.
func TestApproxMatchesOracle(t *testing.T) {
	prev := vec.KernelName()
	defer func() {
		if err := vec.UseKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	n := 4*chunk.MinRows + 3
	ties := vec.NewMatrix(n, 3)
	for _, i := range []int{7, scanBlock + 1, n / 2, n - 1} {
		copy(ties.Row(i), []float32{5, 5, 5})
	}
	type pointSet struct {
		name string
		data *vec.Matrix
		idx  []int
	}
	sets := []pointSet{
		{"ties", ties, nil},
		{"ties-subset", ties, xrand.New(3).Perm(n)[:n-5]},
		{"small", dataset.Gaussian(300, 13, 2, xrand.New(4)), nil},
	}
	for _, d := range []int{6, 32, 130} {
		data := dataset.Gaussian(n, d, 2, xrand.New(int64(d)))
		sets = append(sets,
			pointSet{fmt.Sprintf("gaussian,d=%d", d), data, nil},
			pointSet{fmt.Sprintf("subset,d=%d", d), data, xrand.New(5).Perm(n)[:n-9]})
	}
	for _, kern := range vec.KernelNames() {
		if err := vec.UseKernel(kern); err != nil {
			t.Fatal(err)
		}
		for _, set := range sets {
			centroid := set.data.Mean(set.idx)
			for _, procs := range []int{1, 2, 8} {
				prevProcs := runtime.GOMAXPROCS(procs)
				got := Approx(set.data, rowIDs(set.idx), centroid, 40)
				want := oracleApprox(set.data, set.idx, centroid, 40)
				runtime.GOMAXPROCS(prevProcs)
				if got != want {
					t.Fatalf("%s %s GOMAXPROCS %d: %+v, oracle %+v", kern, set.name, procs, got, want)
				}
			}
		}
	}
}
