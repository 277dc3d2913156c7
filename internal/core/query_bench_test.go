package core

import (
	"fmt"
	"slices"
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

// BenchmarkCandidateUnion prices the candidate union alone — begin, union
// over every bucket a query walks, drain — on synthetic bucket histories
// shaped like the repository benchmark's: n = 100k with the probe
// workload's mix (1 024 lookups, 13 216 entries, 2 651 distinct ids), n =
// 60k with the scan workload's (160 lookups, 12 203 entries, 1 618
// distinct) and the probe mix at n = 1M, where a drain over the whole set
// reads 15 625 words. "probe-1M-leaf" is that mix with its ids drawn from
// one sixteenth of n, one leaf's block of a leaf-ordered base, and the
// drain narrowed to the block as a query's gather narrows it. "count" is
// the form plans that arm early termination run.
func BenchmarkCandidateUnion(b *testing.B) {
	shapes := []struct {
		name                        string
		n, buckets, entries, unique int
		leaf                        bool
	}{
		{"probe-100k", 100_000, 1024, 13216, 2651, false},
		{"scan-60k", 60_000, 160, 12203, 1618, false},
		{"probe-1M", 1_000_000, 1024, 13216, 2651, false},
		{"probe-1M-leaf", 1_000_000, 1024, 13216, 2651, true},
	}
	for _, sh := range shapes {
		rng := xrand.New(49)
		lo, hi := 0, sh.n
		if sh.leaf {
			lo, hi = 7*sh.n/16, 8*sh.n/16
		}
		hists := make([][][]int, 16)
		for h := range hists {
			hists[h] = unionBuckets(rng, hi-lo, sh.buckets, sh.entries, sh.unique)
			for _, ids := range hists[h] {
				for i := range ids {
					ids[i] += lo
				}
			}
		}
		sn := &snapshot{data: &vec.Matrix{N: sh.n, D: 1}}
		for _, count := range []bool{false, true} {
			name := sh.name + "/mark"
			if count {
				name = sh.name + "/count"
			}
			b.Run(name, func(b *testing.B) {
				s := &scratch{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var st QueryStats
					s.begin(sn, count)
					s.lo, s.hi = lo, hi
					for _, ids := range hists[i%len(hists)] {
						union(s, &st, ids)
					}
					s.drain()
				}
			})
		}
	}
}

// unionBuckets draws one query's bucket history over ids [0, n): unique
// distinct ids, each posted at least once, spread with repeats over
// entries postings in buckets lookups, each bucket sorted as a table's
// postings are.
func unionBuckets(rng *xrand.RNG, n, buckets, entries, unique int) [][]int {
	ids := rng.Sample(n, unique)
	post := append([]int(nil), ids...)
	for len(post) < entries {
		post = append(post, ids[rng.Intn(unique)])
	}
	rng.Shuffle(len(post), func(i, j int) { post[i], post[j] = post[j], post[i] })
	out := make([][]int, buckets)
	for bi := range out {
		out[bi] = post[bi*entries/buckets : (bi+1)*entries/buckets]
		slices.Sort(out[bi])
	}
	return out
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
