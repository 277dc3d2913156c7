package rptree

import (
	"fmt"
	"runtime"
	"testing"

	"bilsh/internal/dataset"
	"bilsh/internal/xrand"
)

// BenchmarkRPTreeBuild measures the level-1 tree of a 16-group build at
// the repository benchmark's two tree-heavy shapes (scan-60k-d128 and
// probe-100k-d32), each at GOMAXPROCS 1 and 2: the splits draw in
// sequence, so the second core helps only inside a split.
func BenchmarkRPTreeBuild(b *testing.B) {
	for _, shape := range []struct{ n, d int }{{60000, 128}, {100000, 32}} {
		data, _, err := dataset.Clustered(dataset.DefaultClusteredSpec(shape.n, shape.d), xrand.New(3))
		if err != nil {
			b.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d,d=%d/procs=%d", shape.n, shape.d, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Build(data, Options{Leaves: 16}, xrand.New(11))
				}
			})
		}
		runtime.GC()
	}
}
