package lshfunc

import (
	"math"
	"testing"

	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// forEachKernel runs f once under every vec kernel this binary has,
// restoring the automatic choice afterwards.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	prev := vec.KernelName()
	defer func() {
		if err := vec.UseKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range vec.KernelNames() {
		if err := vec.UseKernel(name); err != nil {
			t.Fatal(err)
		}
		t.Run(name, f)
	}
}

// TestProjectBlockMatchesProject requires the block projection to give,
// for every vector of a block, the bits Project gives it alone: blocks of
// 1-9 vectors cross the 4-vector tile and its remainders, odd M its last
// row, and d not a multiple of 4 its element tail.
func TestProjectBlockMatchesProject(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, shape := range []struct{ d, m int }{{1, 1}, {7, 3}, {33, 8}, {130, 16}, {960, 5}} {
			f, err := NewFamily(shape.d, Params{M: shape.m, L: 3, W: 1.7}, xrand.New(int64(shape.d)))
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.New(9)
			for n := 1; n <= 9; n++ {
				vs := make([][]float32, n)
				for r := range vs {
					vs[r] = rng.GaussianVec(shape.d)
				}
				for tab := 0; tab < f.L(); tab++ {
					got := make([]float64, n*shape.m)
					f.ProjectBlock(tab, vs, got)
					for r, v := range vs {
						want := f.Projected(tab, v)
						for i, w := range want {
							if g := got[r*shape.m+i]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("d=%d M=%d block of %d, table %d, vector %d, value %d: %v, Project %v",
									shape.d, shape.m, n, tab, r, i, g, w)
							}
						}
					}
				}
			}
		}
	})
}

// TestSketchAllMatchesSketch requires SketchAll, which sketches four rows
// per kernel call, to give every row the sketch Sketch gives it, at row
// counts that leave each remainder of a block of four.
func TestSketchAllMatchesSketch(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, shape := range []struct{ n, d, bits int }{{1, 5, 3}, {6, 17, 64}, {11, 32, 100}, {13, 129, 128}} {
			sk, err := NewSketcher(shape.d, shape.bits, xrand.New(int64(shape.bits)))
			if err != nil {
				t.Fatal(err)
			}
			m := vec.NewMatrix(shape.n, shape.d)
			rng := xrand.New(5)
			for i := 0; i < m.N; i++ {
				copy(m.Row(i), rng.GaussianVec(shape.d))
			}
			copy(m.Row(m.N-1), make([]float32, shape.d)) // all margins 0: every bit set
			bm := sk.SketchAll(m)
			want := make([]uint64, sk.Words())
			for i := 0; i < m.N; i++ {
				sk.Sketch(m.Row(i), want)
				for w, word := range want {
					if got := bm.Row(i)[w]; got != word {
						t.Fatalf("n=%d d=%d bits=%d row %d word %d: SketchAll %#x, Sketch %#x",
							shape.n, shape.d, shape.bits, i, w, got, word)
					}
				}
			}
		}
	})
}
