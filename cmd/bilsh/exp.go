package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"bilsh/internal/experiments"
	"bilsh/internal/httpx"
	"bilsh/internal/metrics"
)

// figureRunner adapts each harness to a common signature.
type figureRunner func(*experiments.Workload) (experiments.FigureResult, error)

var figureRunners = map[string]figureRunner{
	"fig5":  experiments.Figure5,
	"fig6":  experiments.Figure6,
	"fig7":  experiments.Figure7,
	"fig8":  experiments.Figure8,
	"fig9":  experiments.Figure9,
	"fig10": experiments.Figure10,
	"fig11": experiments.Figure11,
	"fig12": experiments.Figure12,
	"fig13a": func(w *experiments.Workload) (experiments.FigureResult, error) {
		return experiments.Figure13a(w, nil)
	},
	"fig13b": func(w *experiments.Workload) (experiments.FigureResult, error) {
		return experiments.Figure13b(w, nil)
	},
	"fig13c":         experiments.Figure13c,
	"rp-rule":        experiments.RPRuleComparison,
	"tuner-ablation": experiments.TunerAblation,
	"lattice-cmp":    experiments.LatticeComparison,
	"group-routing":  experiments.GroupRouting,
	"probe-budget": func(w *experiments.Workload) (experiments.FigureResult, error) {
		return experiments.ProbeBudget(w, nil)
	},
}

// figureOrder fixes the "all" execution order.
var figureOrder = []string{
	"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13a", "fig13b", "fig13c",
	"rp-rule", "tuner-ablation", "lattice-cmp", "group-routing", "probe-budget",
	"aspect-variance",
}

// cmdExp runs one or all experiment harnesses and prints their tables.
func cmdExp(args []string) error {
	fs := newFlagSet("exp")
	fig := fs.String("fig", "all", "figure id ("+strings.Join(figureOrder, ", ")+") or all")
	scale := fs.String("scale", "default", "workload scale: tiny or default")
	n := fs.Int("n", 0, "override: indexed items")
	q := fs.Int("queries", 0, "override: query count")
	d := fs.Int("d", 0, "override: dimension")
	k := fs.Int("k", 0, "override: neighborhood size")
	reps := fs.Int("reps", 0, "override: projection repetitions")
	seed := fs.Int64("seed", 0, "override: seed")
	profile := fs.String("workload", "labelme", "workload profile: labelme or tinyimages")
	csvDir := fs.String("csv", "", "also write each figure's series to <dir>/<fig>.csv")
	metricsOut := fs.Bool("metrics", false, "print the accumulated process metrics (Prometheus text) after the run")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof/ and /metrics on this address while experiments run (e.g. localhost:6060)")
	statsEvery := fs.Duration("stats-interval", 0, "log a one-line stats summary at this interval (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	if *pprofAddr != "" {
		go func() {
			// A debug-only listener: pprof for profiling the harnesses, the
			// metrics registry for watching stage counters move mid-run.
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				metrics.Default().WritePrometheus(w)
			})
			srv := httpx.NewServer(mux)
			srv.Addr = *pprofAddr
			if err := srv.ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "exp: pprof listener: %v\n", err)
			}
		}()
	}
	if *statsEvery > 0 {
		logger := metrics.NewLogger(metrics.Default(), *statsEvery, log.Printf)
		logger.Start()
		defer logger.Stop()
	}
	if *metricsOut {
		defer func() {
			fmt.Println("--- metrics ---")
			if err := metrics.Default().WritePrometheus(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "exp: writing metrics: %v\n", err)
			}
		}()
	}

	cfg := experiments.Default()
	if *scale == "tiny" {
		cfg = experiments.Tiny()
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *q > 0 {
		cfg.Queries = *q
	}
	if *d > 0 {
		cfg.D = *d
	}
	if *k > 0 {
		cfg.K = *k
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Profile = *profile

	fmt.Printf("workload: profile=%s n=%d queries=%d d=%d k=%d m=%d groups=%d reps=%d seed=%d\n",
		cfg.Profile, cfg.N, cfg.Queries, cfg.D, cfg.K, cfg.M, cfg.Groups, cfg.Reps, cfg.Seed)
	start := time.Now()
	w, err := experiments.NewWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("workload + exact ground truth ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	ids := []string{*fig}
	if *fig == "all" {
		ids = figureOrder
	}
	for _, id := range ids {
		start := time.Now()
		if id == "aspect-variance" {
			res, err := experiments.AspectVariance(cfg, nil)
			if err != nil {
				return fmt.Errorf("aspect-variance: %w", err)
			}
			if err := res.WriteTable(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("(%s done in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
			continue
		}
		if id == "fig4" {
			res, err := experiments.Figure4(w)
			if err != nil {
				return fmt.Errorf("fig4: %w", err)
			}
			if err := res.WriteTable(os.Stdout); err != nil {
				return err
			}
			if *csvDir != "" {
				if err := writeCSVFile(*csvDir+"/fig4.csv", res.WriteCSV); err != nil {
					return err
				}
			}
		} else {
			runner, ok := figureRunners[id]
			if !ok {
				return fmt.Errorf("unknown figure %q (want one of %s)", id, strings.Join(figureOrder, ", "))
			}
			res, err := runner(w)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			if err := res.WriteTable(os.Stdout); err != nil {
				return err
			}
			if *csvDir != "" {
				if err := writeCSVFile(*csvDir+"/"+id+".csv", res.WriteCSV); err != nil {
					return err
				}
			}
		}
		fmt.Printf("(%s done in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeCSVFile writes one figure's CSV through the given serializer.
func writeCSVFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
