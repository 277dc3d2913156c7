package core

import (
	"fmt"
	"runtime"
	"testing"

	"bilsh/internal/dataset"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// buildShapes are the index shapes of the repository benchmark's workloads
// on the build side: wide rows where projection is nearly all of a build
// (hash-10k-d960), many narrow rows where the partitioner, the lattice
// decode and the table grouping are (probe-100k-d32), the shape where
// the level-1 tree is half of a build (scan-60k-d128), and the served
// shape with its SQ8 row store (serve-mixed-30k-d128).
var buildShapes = []struct {
	name string
	n, d int
	opts Options
}{
	{"n=10k,d=960,ZM,L=32", 10000, 960, Options{
		Partitioner: PartitionRPTree, Groups: 16, AutoTuneW: true,
		Params:    lshfunc.Params{M: 16, L: 32, W: 1},
		ProbeMode: ProbeSingle,
	}},
	{"n=100k,d=32,E8,L=8", 100000, 32, Options{
		Partitioner: PartitionRPTree, Groups: 16, AutoTuneW: true,
		Lattice: LatticeE8, TuneTargetRecall: 0.4,
		Params:    lshfunc.Params{M: 8, L: 8, W: 1},
		ProbeMode: ProbeMulti, Probes: 128,
	}},
	{"n=60k,d=128,ZM,L=10,multi", 60000, 128, Options{
		Partitioner: PartitionRPTree, Groups: 16, AutoTuneW: true,
		Params:    lshfunc.Params{M: 8, L: 10, W: 1},
		ProbeMode: ProbeMulti, Probes: 16,
	}},
	{"n=30k,d=128,ZM,L=10,multi,SQ8", 30000, 128, Options{
		Partitioner: PartitionRPTree, Groups: 16, AutoTuneW: true,
		Params:    lshfunc.Params{M: 8, L: 10, W: 1},
		ProbeMode: ProbeMulti, Probes: 16,
		Quantize: QuantizeSQ8,
	}},
}

// benchBuildShapes runs fn for every shape at GOMAXPROCS 1 and 2, so one
// -benchmem run shows both what a build allocates and how it scales with a
// second core.
func benchBuildShapes(b *testing.B, fn func(b *testing.B, data *vec.Matrix, opts Options)) {
	for _, shape := range buildShapes {
		data, _, err := dataset.Clustered(dataset.DefaultClusteredSpec(shape.n, shape.d), xrand.New(3))
		if err != nil {
			b.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/procs=%d", shape.name, procs), func(b *testing.B) {
				setProcs(b, procs)
				fn(b, data, shape.opts)
			})
		}
		runtime.GC() // drop this shape's rows before the next is generated
	}
}

// BenchmarkBuild measures core.Build end to end.
func BenchmarkBuild(b *testing.B) {
	benchBuildShapes(b, func(b *testing.B, data *vec.Matrix, opts Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(data, opts, xrand.New(11)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// compactOverlays are the overlays BenchmarkCompact folds, each left by
// mutate before iteration i: the smallest overlay that makes every group
// compact, so the figure is the fold's fixed cost, and the repository
// benchmark's two churn shapes at its overlay size of 1100 inserts.
var compactOverlays = []struct {
	name   string
	mutate func(b *testing.B, ix *Index, data *vec.Matrix, rng *xrand.RNG, i int)
}{
	{"insert=1,delete=1", func(b *testing.B, ix *Index, data *vec.Matrix, _ *xrand.RNG, i int) {
		ix.Delete(benchInsert(b, ix, data, i))
	}},
	{"insert=1100,delete=all", func(b *testing.B, ix *Index, data *vec.Matrix, _ *xrand.RNG, i int) {
		for j := 0; j < 1100; j++ {
			ix.Delete(benchInsert(b, ix, data, i*1100+j))
		}
	}},
	{"insert=1100,keep=half,base=-1%", func(b *testing.B, ix *Index, data *vec.Matrix, rng *xrand.RNG, i int) {
		for j := 0; j < 1100; j++ {
			if id := benchInsert(b, ix, data, i*1100+j); j%2 == 0 {
				ix.Delete(id)
			}
		}
		for deleted := 0; deleted < ix.N()/100; {
			if ix.Delete(rng.Intn(ix.N())) {
				deleted++
			}
		}
	}},
}

// benchInsert inserts data's row j (wrapping) and returns its id.
func benchInsert(b *testing.B, ix *Index, data *vec.Matrix, j int) int {
	id, err := ix.Insert(data.Row(j % data.N))
	if err != nil {
		b.Fatal(err)
	}
	return id
}

// BenchmarkCompact measures a synchronous Compact of each of
// compactOverlays: the fold, the merged tables and the requantization, not
// the inserts and deletes that leave the overlay.
func BenchmarkCompact(b *testing.B) {
	benchBuildShapes(b, func(b *testing.B, data *vec.Matrix, opts Options) {
		for _, overlay := range compactOverlays {
			b.Run(overlay.name, func(b *testing.B) {
				ix, err := Build(data, opts, xrand.New(11))
				if err != nil {
					b.Fatal(err)
				}
				rng := xrand.New(12)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					overlay.mutate(b, ix, data, rng, i)
					b.StartTimer()
					if _, err := ix.Compact(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}
