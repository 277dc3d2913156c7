package core

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"bilsh/internal/dataset"
	"bilsh/internal/lshfunc"
	"bilsh/internal/xrand"
)

// serveShape is the index bilsh serve loads in the repository benchmark's
// serve-mixed-30k-d128 workload: 30 000 clustered rows at d = 128, SQ8
// row codes, 16 groups of 10 multi-probe tables.
var serveShape = Options{
	Partitioner: PartitionRPTree, Groups: 16, AutoTuneW: true,
	Params:    lshfunc.Params{M: 8, L: 10, W: 1},
	ProbeMode: ProbeMulti, Probes: 16,
	Quantize: QuantizeSQ8,
}

// serveShapedIndex builds serveShape over n rows.
func serveShapedIndex(tb testing.TB, n int) *Index {
	tb.Helper()
	data, _, err := dataset.Clustered(dataset.DefaultClusteredSpec(n, 128), xrand.New(3))
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := Build(data, serveShape, xrand.New(11))
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// BenchmarkWriteTo measures encoding the serve-shaped index (into
// io.Discard, so the figure is the codec's alone).
func BenchmarkWriteTo(b *testing.B) {
	ix := serveShapedIndex(b, 30000)
	n, err := ix.WriteTo(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadIndex measures loading the serve-shaped index from a file,
// as bilsh serve opens it: ReadIndex over the *os.File itself.
func BenchmarkReadIndex(b *testing.B) {
	ix := serveShapedIndex(b, 30000)
	path := filepath.Join(b.TempDir(), "index.bilsh")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	n, err := ix.WriteTo(f)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadIndex(f); err != nil {
			b.Fatal(err)
		}
	}
}
