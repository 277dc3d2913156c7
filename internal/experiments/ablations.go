package experiments

import (
	"fmt"

	"bilsh/internal/core"
	"bilsh/internal/knn"
	"bilsh/internal/xrand"
)

// LatticeComparison is an extension ablation on the density axis the paper
// motivates in Section II-B: the same Bi-level index quantized on Z^M and
// E8. E8's higher density should buy quality at equal selectivity in dim-8
// blocks.
func LatticeComparison(w *Workload) (FigureResult, error) {
	res := FigureResult{ID: "lattice-cmp", Title: "quantizer density ablation: Z^M vs E8"}
	l := midL(w.Cfg)
	for _, lat := range []core.LatticeKind{core.LatticeZM, core.LatticeE8} {
		m := BiLevelLSH(lat, core.ProbeSingle, w.Cfg.M, l, w.Cfg.Groups)
		m.Name = fmt.Sprintf("bi-level (%v)", lat)
		s, err := RunSweep(w, m, l)
		if err != nil {
			return res, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// ProbeBudget is an extension ablation of the multi-probe budget T: the
// paper fixes 240 probes (the E8 kissing number); this harness sweeps the
// budget to expose the probes-vs-quality trade-off at fixed L.
func ProbeBudget(w *Workload, budgets []int) (FigureResult, error) {
	if len(budgets) == 0 {
		budgets = []int{1, 11, 51, 241}
	}
	res := FigureResult{ID: "probe-budget", Title: "multiprobe budget sweep (bi-level, Z^M)"}
	l := midL(w.Cfg)
	for _, t := range budgets {
		m := BiLevelLSH(core.LatticeZM, core.ProbeMulti, w.Cfg.M, l, w.Cfg.Groups)
		if t <= 1 {
			m = BiLevelLSH(core.LatticeZM, core.ProbeSingle, w.Cfg.M, l, w.Cfg.Groups)
		}
		m.Name = fmt.Sprintf("probes=%d", t)
		m.Opts.Probes = t
		s, err := RunSweep(w, m, l)
		if err != nil {
			return res, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// GroupRouting is an extension ablation of the level-1 routing risk: it
// compares the bi-level index against an in-leaf oracle whose width sweep
// is multiplied 100x, so each query scans essentially its whole group. The
// oracle's recall plateau is the ceiling imposed by restricting search to
// the query's RP-tree leaf — the cross-leaf neighbor loss the bi-level
// scheme trades for selectivity.
func GroupRouting(w *Workload) (FigureResult, error) {
	res := FigureResult{ID: "group-routing", Title: "level-1 routing ceiling: bi-level vs in-leaf oracle"}
	l := midL(w.Cfg)
	base := BiLevelLSH(core.LatticeZM, core.ProbeSingle, w.Cfg.M, l, w.Cfg.Groups)
	biSeries, err := RunSweep(w, base, l)
	if err != nil {
		return res, err
	}
	res.Series = append(res.Series, biSeries)

	oracle := Series{Method: "in-leaf oracle (100x widths)", L: l}
	cfg := w.Cfg
	for wi, scale := range cfg.WScales {
		runs := make([]knn.RunMeasure, 0, cfg.Reps)
		for rep := 0; rep < cfg.Reps; rep++ {
			opts := base.Opts
			opts.Params.M = cfg.M
			opts.Params.L = l
			opts.Params.W = scale * 100
			opts.TuneK = cfg.K
			seed := cfg.Seed*1_000_003 + int64(wi)*101 + int64(rep) + 7
			ix, err := core.Build(w.Train, opts, xrand.New(seed))
			if err != nil {
				return res, fmt.Errorf("experiments: oracle W=%g rep %d: %w", scale, rep, err)
			}
			runs = append(runs, measureRun(w, ix))
		}
		oracle.Points = append(oracle.Points, Point{WScale: scale, VarianceSummary: knn.AggregateRuns(runs)})
	}
	res.Series = append(res.Series, oracle)
	return res, nil
}
