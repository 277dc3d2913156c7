// Repository-level benchmarks: one per figure of the paper's evaluation
// section, regenerating the figure's series. Each benchmark iteration runs
// the figure's full harness (index builds, query sweeps, metric
// aggregation), so iterations are expensive and `go test -bench` typically
// runs each once.
//
// Scale: benchmarks default to a trimmed laptop configuration (the "bench"
// scale below) so the full suite finishes in minutes on one core. Set
// BILSH_BENCH_SCALE=default for the larger harness scale, or =tiny for a
// smoke run. Set BILSH_BENCH_PRINT=1 to print each figure's table to
// stdout (this is how EXPERIMENTS.md's measured tables were produced).
package bilsh

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"bilsh/internal/core"
	"bilsh/internal/experiments"
	"bilsh/internal/xrand"
)

// benchConfig sizes the benchmark workload.
func benchConfig() experiments.Config {
	switch os.Getenv("BILSH_BENCH_SCALE") {
	case "default":
		return experiments.Default()
	case "tiny":
		return experiments.Tiny()
	default:
		return experiments.Config{
			N: 4000, Queries: 300, D: 64, K: 20, M: 8, Groups: 16,
			Clusters: 32,
			Reps:     2,
			WScales:  []float64{0.15, 0.3, 0.5, 0.8, 1.3, 2.0},
			Ls:       []int{5, 10},
			Seed:     3,
		}
	}
}

var (
	benchWLOnce sync.Once
	benchWL     *experiments.Workload
	benchWLErr  error
)

// benchWorkload builds the shared workload (data + exact ground truth)
// once per process.
func benchWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchWLOnce.Do(func() {
		benchWL, benchWLErr = experiments.NewWorkload(benchConfig())
	})
	if benchWLErr != nil {
		b.Fatal(benchWLErr)
	}
	return benchWL
}

// reportFigure attaches headline metrics and optionally prints the table.
func reportFigure(b *testing.B, res experiments.FigureResult) {
	b.Helper()
	if len(res.Series) >= 2 {
		// First and last series are conventionally baseline and
		// strongest variant; report recall at a shared low selectivity.
		const tau = 0.02
		if r, ok := res.Series[0].InterpolateRecallAt(tau); ok {
			b.ReportMetric(r, "recall@τ0.02_first")
		}
		if r, ok := res.Series[len(res.Series)-1].InterpolateRecallAt(tau); ok {
			b.ReportMetric(r, "recall@τ0.02_last")
		}
	}
	if os.Getenv("BILSH_BENCH_PRINT") != "" {
		if err := res.WriteTable(os.Stdout); err != nil {
			b.Fatal(err)
		}
	}
}

// runFigureBench is the shared body for every series-producing figure.
func runFigureBench(b *testing.B, run func(*experiments.Workload) (experiments.FigureResult, error)) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.StopTimer()
			reportFigure(b, res)
			b.StartTimer()
		}
	}
}

// BenchmarkFig04ShortList regenerates Figure 4: short-list search time of
// the CPU, GPU-hash+CPU and pure-GPU pipelines (modeled via parsim)
// against candidate volume.
func BenchmarkFig04ShortList(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.StopTimer()
			last := res.Points[len(res.Points)-1]
			hash, gpu, queued := last.Row.Speedups()
			b.ReportMetric(hash, "x_hash_offload")
			b.ReportMetric(gpu, "x_pure_gpu")
			b.ReportMetric(queued, "x_work_queue")
			if os.Getenv("BILSH_BENCH_PRINT") != "" {
				if err := res.WriteTable(os.Stdout); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
	}
}

// BenchmarkFig05StdVsBiZM regenerates Figure 5: standard vs Bi-level LSH
// on the Z^M lattice (selectivity -> recall/error with projection
// deviations, across L).
func BenchmarkFig05StdVsBiZM(b *testing.B) { runFigureBench(b, experiments.Figure5) }

// BenchmarkFig06StdVsBiE8 regenerates Figure 6 (E8 lattice).
func BenchmarkFig06StdVsBiE8(b *testing.B) { runFigureBench(b, experiments.Figure6) }

// BenchmarkFig07MultiprobeZM regenerates Figure 7 (multiprobe, Z^M).
func BenchmarkFig07MultiprobeZM(b *testing.B) { runFigureBench(b, experiments.Figure7) }

// BenchmarkFig08MultiprobeE8 regenerates Figure 8 (multiprobe, E8).
func BenchmarkFig08MultiprobeE8(b *testing.B) { runFigureBench(b, experiments.Figure8) }

// BenchmarkFig09HierZM regenerates Figure 9 (hierarchical, Z^M).
func BenchmarkFig09HierZM(b *testing.B) { runFigureBench(b, experiments.Figure9) }

// BenchmarkFig10HierE8 regenerates Figure 10 (hierarchical, E8).
func BenchmarkFig10HierE8(b *testing.B) { runFigureBench(b, experiments.Figure10) }

// BenchmarkFig11AllZM regenerates Figure 11: all six methods on Z^M with
// query-induced deviations.
func BenchmarkFig11AllZM(b *testing.B) { runFigureBench(b, experiments.Figure11) }

// BenchmarkFig12AllE8 regenerates Figure 12 (all six methods, E8).
func BenchmarkFig12AllE8(b *testing.B) { runFigureBench(b, experiments.Figure12) }

// BenchmarkFig13aGroups regenerates Figure 13(a): quality vs number of
// level-1 groups.
func BenchmarkFig13aGroups(b *testing.B) {
	runFigureBench(b, func(w *experiments.Workload) (experiments.FigureResult, error) {
		return experiments.Figure13a(w, []int{1, 8, 16, 32})
	})
}

// BenchmarkFig13bM regenerates Figure 13(b): Bi-level vs standard across
// hash lengths M.
func BenchmarkFig13bM(b *testing.B) {
	runFigureBench(b, func(w *experiments.Workload) (experiments.FigureResult, error) {
		return experiments.Figure13b(w, []int{4, 8, 10})
	})
}

// BenchmarkFig13cPartitioner regenerates Figure 13(c): RP-tree vs K-means
// as the level-1 partitioner.
func BenchmarkFig13cPartitioner(b *testing.B) { runFigureBench(b, experiments.Figure13c) }

// BenchmarkRPRule is the extension ablation of the Section IV-A2 claim
// that the mean split rule beats the max rule.
func BenchmarkRPRule(b *testing.B) { runFigureBench(b, experiments.RPRuleComparison) }

// BenchmarkTunerAblation isolates the per-group parameter tuning benefit
// (Section IV-B).
func BenchmarkTunerAblation(b *testing.B) { runFigureBench(b, experiments.TunerAblation) }

// BenchmarkLatticeCmp is the quantizer density ablation (Z^M vs E8).
func BenchmarkLatticeCmp(b *testing.B) { runFigureBench(b, experiments.LatticeComparison) }

// BenchmarkGroupRouting measures the level-1 routing recall ceiling.
func BenchmarkGroupRouting(b *testing.B) { runFigureBench(b, experiments.GroupRouting) }

// BenchmarkBuild measures raw index construction throughput for the main
// configurations (not a paper figure; an engineering baseline).
func BenchmarkBuild(b *testing.B) {
	w := benchWorkload(b)
	for _, m := range []experiments.Method{
		experiments.StandardLSH(0, 0, w.Cfg.M, 10),
		experiments.BiLevelLSH(0, 0, w.Cfg.M, 10, w.Cfg.Groups),
	} {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := buildForBench(w, m, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuery measures per-query latency of the built index.
func BenchmarkQuery(b *testing.B) {
	w := benchWorkload(b)
	m := experiments.BiLevelLSH(0, 0, w.Cfg.M, 10, w.Cfg.Groups)
	ix, err := buildForBench(w, m, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(w.Queries.Row(i%w.Queries.N), w.Cfg.K)
	}
}

// buildForBench constructs one index for a method at the bench workload's
// parameters.
func buildForBench(w *experiments.Workload, m experiments.Method, seed int64) (*core.Index, error) {
	opts := m.Opts
	opts.Params.L = 10
	opts.Params.W = 1
	opts.TuneK = w.Cfg.K
	if opts.Groups == 0 {
		opts.Groups = w.Cfg.Groups
	}
	ix, err := core.Build(w.Train, opts, xrand.New(1_000_000+seed))
	if err != nil {
		return nil, fmt.Errorf("bench build %s: %w", m.Name, err)
	}
	return ix, nil
}
