package core

import (
	"fmt"
	"testing"

	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// benchIndex builds a small but non-trivial index for hot-path
// microbenchmarks: clustered data so buckets are populated and the
// short list is non-empty.
func benchIndex(b *testing.B, mode ProbeMode) (*Index, *vec.Matrix) {
	b.Helper()
	return benchIndexOpts(b, benchConfig{mode: mode})
}

// benchConfig is one probe configuration of the hot-path benchmarks: a
// probe mode over a lattice (Z^M when unset) or over Hamming sketches.
type benchConfig struct {
	name    string
	mode    ProbeMode
	lattice LatticeKind
	metric  MetricKind
}

// benchConfigs covers every probe mode on Z^M plus the multi-probe ring on
// E8 and both Hamming modes. The Z^M configurations are named by the mode
// alone, the names their earlier results were recorded under.
func benchConfigs() []benchConfig {
	return []benchConfig{
		{name: "single", mode: ProbeSingle},
		{name: "multiprobe", mode: ProbeMulti},
		{name: "hierarchy", mode: ProbeHierarchy},
		{name: "e8-multiprobe", mode: ProbeMulti, lattice: LatticeE8},
		{name: "hamming-single", mode: ProbeSingle, metric: MetricHamming},
		{name: "hamming-multiprobe", mode: ProbeMulti, metric: MetricHamming},
	}
}

func benchIndexOpts(b *testing.B, cfg benchConfig) (*Index, *vec.Matrix) {
	b.Helper()
	const (
		n       = 4000
		queries = 256
		d       = 64
	)
	rng := xrand.New(7)
	data := vec.NewMatrix(n, d)
	centers := vec.NewMatrix(32, d)
	for i := 0; i < centers.N; i++ {
		copy(centers.Row(i), rng.GaussianVec(d))
		vec.Scale(centers.Row(i), 4)
	}
	for i := 0; i < n; i++ {
		c := centers.Row(i % centers.N)
		row := data.Row(i)
		copy(row, rng.GaussianVec(d))
		vec.Add(row, row, c)
	}
	qs := vec.NewMatrix(queries, d)
	for i := 0; i < queries; i++ {
		copy(qs.Row(i), data.Row(rng.Intn(n)))
		noise := rng.GaussianVec(d)
		vec.Scale(noise, 0.1)
		vec.Add(qs.Row(i), qs.Row(i), noise)
	}
	opts := Options{
		Partitioner: PartitionRPTree,
		Groups:      16,
		ProbeMode:   cfg.mode,
		Lattice:     cfg.lattice,
		Metric:      cfg.metric,
		Probes:      16,
	}
	ix, err := Build(data, opts, xrand.New(11))
	if err != nil {
		b.Fatal(err)
	}
	return ix, qs
}

// BenchmarkQueryModes measures end-to-end Query latency per probe
// configuration.
func BenchmarkQueryModes(b *testing.B) {
	for _, cfg := range benchConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			ix, qs := benchIndexOpts(b, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Query(qs.Row(i%qs.N), 10)
			}
		})
	}
}

// BenchmarkGather isolates the candidate-collection stage (route + probe +
// scan, no ranking) per probe configuration.
func BenchmarkGather(b *testing.B) {
	for _, cfg := range benchConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			ix, qs := benchIndexOpts(b, cfg)
			s := ix.getScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchGather(ix, qs.Row(i%qs.N), s)
			}
		})
	}
}

// BenchmarkRank isolates the short-list ranking stage over a fixed
// candidate set.
func BenchmarkRank(b *testing.B) {
	ix, qs := benchIndex(b, ProbeSingle)
	s := ix.getScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRank(ix, qs.Row(i%qs.N), 10, s)
	}
}

// BenchmarkCandidateList measures the external short-list entry point.
func BenchmarkCandidateList(b *testing.B) {
	ix, qs := benchIndex(b, ProbeSingle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.CandidateList(qs.Row(i % qs.N))
	}
}

// benchGather and benchRank adapt the unexported hot-path internals for
// the stage benchmarks above.
func benchGather(ix *Index, q []float32, s *scratch) int {
	sn := ix.loadSnap()
	rp := sn.defaultResolved(10)
	return sn.gatherPlan(q, &rp, s).Candidates
}

func benchRank(ix *Index, q []float32, k int, s *scratch) int {
	sn := ix.loadSnap()
	rp := sn.defaultResolved(k)
	sn.gatherPlan(q, &rp, s)
	res := sn.rankWith(q, k, 0, s)
	return len(res.IDs)
}

// BenchmarkQueryBatchParallel measures batch throughput (hierarchy mode
// exercises the median rule plus per-worker scratch reuse).
func BenchmarkQueryBatchParallel(b *testing.B) {
	for _, mode := range []ProbeMode{ProbeSingle, ProbeHierarchy} {
		b.Run(fmt.Sprintf("%s", mode), func(b *testing.B) {
			ix, qs := benchIndex(b, mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.QueryBatchParallel(qs, 10, 4)
			}
		})
	}
}
