package main

import (
	"fmt"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/dataset"
	"bilsh/internal/knn"
	"bilsh/internal/xrand"
)

// cmdSearch builds an index over an fvecs file, answers queries from a
// second file, and reports quality against exact ground truth.
func cmdSearch(args []string) error {
	fs := newFlagSet("search")
	dataPath := fs.String("data", "", "fvecs file with the indexed vectors (required)")
	queryPath := fs.String("queries", "", "fvecs file with query vectors (required)")
	k := fs.Int("k", 10, "neighbors per query")
	mf := methodFlags{
		bilevel: fs.Bool("bilevel", true, "use the bi-level scheme (false = standard LSH)"),
		lattice: fs.String("lattice", "ZM", "lattice: ZM or E8"),
		probe:   fs.String("probe", "single", "probe mode: single, multi, hierarchy"),
		groups:  fs.Int("groups", 16, "level-1 partitions"),
		m:       fs.Int("m", 8, "hash code length M"),
		l:       fs.Int("l", 10, "hash tables L"),
		w:       fs.Float64("w", 1.0, "bucket width multiplier over the tuned base"),
		seed:    fs.Int64("seed", 1, "random seed"),
		metric: fs.String("metric", "euclidean",
			"distance metric: euclidean (l2) or hamming (sketch + bit-sampling LSH; truth is the exact Hamming scan)"),
		bits: fs.Int("bits", 0, "hamming: sketch width in bits (0 = default 256)"),
	}
	maxN := fs.Int("maxn", 0, "cap on vectors read (0 = all)")
	maxQ := fs.Int("maxq", 1000, "cap on queries evaluated")
	verbose := fs.Bool("v", false, "print each query's neighbors")
	recall := fs.Float64("recall", 0, "per-query recall SLO in (0,1): resolve the table budget from the collision model (0 = probe all L tables)")
	stableProbes := fs.Int("stable-probes", 0, "stop probing after this many consecutive probes without shortlist growth (0 = off)")
	maxCands := fs.Int("max-candidates", 0, "stop probing once the shortlist reaches this size (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" || *queryPath == "" {
		return fmt.Errorf("search: -data and -queries are required")
	}
	opts, err := mf.options()
	if err != nil {
		return err
	}

	data, err := dataset.LoadFvecsFile(*dataPath, *maxN)
	if err != nil {
		return fmt.Errorf("loading data: %w", err)
	}
	queries, err := dataset.LoadFvecsFile(*queryPath, *maxQ)
	if err != nil {
		return fmt.Errorf("loading queries: %w", err)
	}
	if queries.D != data.D {
		return fmt.Errorf("dimension mismatch: data %d vs queries %d", data.D, queries.D)
	}

	start := time.Now()
	ix, err := core.Build(data, opts, xrand.New(*mf.seed))
	if err != nil {
		return err
	}
	buildDur := time.Since(start)

	plan := core.Plan{TargetRecall: *recall, StableProbes: *stableProbes, MaxCandidates: *maxCands}
	planned := !plan.IsDefault()
	start = time.Now()
	var results []knn.Result
	var stats []core.QueryStats
	var planStats []core.PlanStats
	if planned {
		plan.K = *k
		results, planStats = ix.QueryBatchPlan(queries, plan)
		stats = make([]core.QueryStats, len(planStats))
		for i := range planStats {
			stats[i] = planStats[i].QueryStats
		}
	} else {
		results, stats = ix.QueryBatch(queries, *k)
	}
	queryDur := time.Since(start)

	// Ground truth in the index's own metric: brute-force Euclidean over
	// the raw rows, or the exact Hamming scan over the index's sketches.
	var truth []knn.Result
	if opts.Metric == core.MetricHamming {
		truth = make([]knn.Result, queries.N)
		for qi := range truth {
			truth[qi] = ix.ExactKNN(queries.Row(qi), *k)
		}
	} else {
		truth = knn.ExactAll(data, queries, *k)
	}
	var gotRecall, errRatio, sel float64
	for qi := range results {
		gotRecall += knn.Recall(truth[qi].IDs, results[qi].IDs)
		errRatio += knn.ErrorRatio(truth[qi].Dists, results[qi].Dists)
		sel += knn.Selectivity(stats[qi].Scanned, data.N)
		if *verbose {
			fmt.Printf("query %d: %v\n", qi, results[qi].IDs)
		}
	}
	nq := float64(queries.N)
	fmt.Printf("indexed %d vectors (dim %d) in %v; %d queries in %v (%.1f q/s)\n",
		data.N, data.D, buildDur.Round(time.Millisecond), queries.N,
		queryDur.Round(time.Millisecond), nq/queryDur.Seconds())
	fmt.Printf("method: bilevel=%v lattice=%v probe=%v groups=%d M=%d L=%d Wx=%g\n",
		*mf.bilevel, opts.Lattice, opts.ProbeMode, ix.NumGroups(), *mf.m, *mf.l, *mf.w)
	if planned {
		var tables, early float64
		for i := range planStats {
			tables += float64(planStats[i].TablesProbed)
			if planStats[i].TerminatedEarly {
				early++
			}
		}
		fmt.Printf("plan: target-recall=%g stable-probes=%d max-candidates=%d  mean-tables-probed=%.2f/%d  early-terminated=%.1f%%\n",
			*recall, *stableProbes, *maxCands, tables/nq, *mf.l, 100*early/nq)
	}
	fmt.Printf("recall=%.4f  error-ratio=%.4f  selectivity=%.4f\n",
		gotRecall/nq, errRatio/nq, sel/nq)
	return nil
}
