package tuner

import (
	"context"
	"math"
	"time"

	"bilsh/internal/metrics"
)

// Online re-tuning: instead of the offline sample-based sweep (EstimateW
// at build time), watch the live per-query work counters that
// internal/core already records into internal/metrics and periodically
// recommend a default execution budget from observed traffic. The server
// and router run one Online each behind their -adaptive flags and apply
// the recommendations to their default query plan; core itself never
// depends on this file, so the byte-identical default-plan guarantee is
// untouched.
//
// The model is deliberately the same one the build-time tuner uses
// (Section IV-B): bucket widths were chosen so a true k-th neighbor
// collides per table with probability q = 1 − (1 − built)^(1/L), which
// makes T tables worth of probing deliver estimated recall
// 1 − (1 − q)^T. The online part estimates the *collision mass* — the
// typical number of distinct candidates a full-budget query gathers —
// from windowed histogram deltas, and turns it into a MaxCandidates
// trigger: once a query has collected a comfortable multiple of the
// typical mass, further probing is spending latency on candidates the
// ranker almost surely discards.

// Budget is an online recommendation for the default query plan. It is
// transport- and core-agnostic (plain numbers) so the tuner can be used
// from both tiers without importing core: the server maps it onto a
// core.Plan, the router onto its forwarded wire plan.
type Budget struct {
	// TargetRecall is the SLO the budget was resolved for (echoed from
	// the config; the serving tier forwards it so shards re-resolve
	// against their own built parameters).
	TargetRecall float64
	// Tables is the recommended table budget (0 when the config did not
	// provide the built table count, e.g. on the router, whose shards
	// resolve tables locally from TargetRecall).
	Tables int
	// MaxCandidates is the early-termination shortlist cap derived from
	// the observed collision mass (0 until enough samples accumulated).
	MaxCandidates int
	// Samples is the number of queries the window observed.
	Samples int64
	// MeanCandidates is the observed mean shortlist size per query in the
	// window.
	MeanCandidates float64
}

// OnlineConfig configures an Online tuner.
type OnlineConfig struct {
	// Candidates is the per-query shortlist-size histogram to watch
	// (normally bilsh_core_query_candidates resolved from the default
	// registry; the router watches its own merged-candidates histogram).
	Candidates *metrics.Histogram

	// TargetRecall is the recall SLO, in (0, 1), that recommendations
	// carry and (when BuiltRecall/Tables are set) resolve into a table
	// budget.
	TargetRecall float64

	// BuiltRecall is the index's build-time TuneTargetRecall and Tables
	// its table count L. When both are set, recommendations include a
	// concrete Tables value; when not (the router fronting heterogeneous
	// shards), Tables stays 0 and only TargetRecall is forwarded.
	BuiltRecall float64
	Tables      int

	// MinSamples is the minimum number of queries a window must observe
	// before the tuner recommends anything (default 64): re-tuning from a
	// handful of queries would chase noise.
	MinSamples int64

	// Headroom multiplies the observed mean shortlist size to produce
	// MaxCandidates (default 3). Larger headroom terminates later and is
	// safer; 1.0 would cut half of all queries short of their own typical
	// mass.
	Headroom float64

	// Interval is the re-tune period for Run (default 10s).
	Interval time.Duration
}

func (c *OnlineConfig) fill() {
	if c.MinSamples <= 0 {
		c.MinSamples = 64
	}
	if c.Headroom <= 0 {
		c.Headroom = 3
	}
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
}

// Online watches live metrics and periodically recommends a Budget.
// Methods are not safe for concurrent use with each other; Run owns the
// Online for its lifetime.
type Online struct {
	cfg OnlineConfig

	// Window baseline: the histogram totals at the end of the previous
	// window. Deltas against these isolate the current window's traffic.
	lastCount int64
	lastSum   float64
}

var metRetunes = metrics.Default().Counter(
	"bilsh_adaptive_retunes_total",
	"Online tuner windows that produced a budget recommendation.")

// NewOnline returns an online tuner over cfg. The initial window baseline
// is the histogram's current totals, so pre-existing traffic is excluded.
func NewOnline(cfg OnlineConfig) *Online {
	cfg.fill()
	o := &Online{cfg: cfg}
	if cfg.Candidates != nil {
		o.lastCount = cfg.Candidates.Count()
		o.lastSum = cfg.Candidates.Sum()
	}
	return o
}

// Step closes the current observation window and, if it saw at least
// MinSamples queries, returns a budget recommendation. The window
// baseline advances only when a recommendation is produced, so sparse
// traffic accumulates across ticks instead of being discarded.
func (o *Online) Step() (Budget, bool) {
	if o.cfg.Candidates == nil {
		return Budget{}, false
	}
	count := o.cfg.Candidates.Count()
	sum := o.cfg.Candidates.Sum()
	n := count - o.lastCount
	if n < o.cfg.MinSamples {
		return Budget{}, false
	}
	mean := (sum - o.lastSum) / float64(n)
	o.lastCount = count
	o.lastSum = sum

	b := Budget{
		TargetRecall:   o.cfg.TargetRecall,
		Samples:        n,
		MeanCandidates: mean,
	}
	if mean > 0 {
		b.MaxCandidates = int(math.Ceil(o.cfg.Headroom * mean))
	}
	if o.cfg.TargetRecall > 0 && o.cfg.Tables > 0 {
		b.Tables = TablesForRecall(o.cfg.TargetRecall, o.cfg.BuiltRecall, o.cfg.Tables)
	}
	metRetunes.Inc()
	return b, true
}

// Run re-tunes every Interval until ctx is done, invoking apply for each
// recommendation. apply runs on Run's goroutine; appliers that publish to
// a live default plan must do so atomically (the serving tiers use an
// atomic pointer swap).
func (o *Online) Run(ctx context.Context, apply func(Budget)) {
	t := time.NewTicker(o.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if b, ok := o.Step(); ok {
				apply(b)
			}
		}
	}
}

// TablesForRecall translates a recall target into a table budget under
// the build-time collision model: widths were tuned so a true k-th
// neighbor collides per table with probability
// q = 1 − (1 − built)^(1/L), hence estimated recall after T tables is
// 1 − (1 − q)^T. Returns the smallest T meeting target, clamped to
// [1, L]. Out-of-range built values fall back to the 0.9 build default.
func TablesForRecall(target, built float64, L int) int {
	if L <= 1 {
		return 1
	}
	if built <= 0 || built >= 1 {
		built = 0.9
	}
	q := PerTableRecall(built, L)
	if q <= 0 || q >= 1 || target <= 0 || target >= 1 {
		return L
	}
	t := int(math.Ceil(math.Log(1-target) / math.Log(1-q)))
	if t < 1 {
		t = 1
	}
	if t > L {
		t = L
	}
	return t
}

// EstimatedRecall is the inverse of TablesForRecall: the recall the
// collision model predicts for probing tables of L built tables.
func EstimatedRecall(tables int, built float64, L int) float64 {
	if L < 1 || tables < 1 {
		return 0
	}
	if tables > L {
		tables = L
	}
	if built <= 0 || built >= 1 {
		built = 0.9
	}
	q := PerTableRecall(built, L)
	return 1 - math.Pow(1-q, float64(tables))
}

// PerTableRecall is the collision model's per-table recall: the
// probability q with which a true k-th neighbor must collide with the
// query in one table for it to collide in at least one of L tables with
// probability recall, q = 1 − (1 − recall)^(1/L). AutoTuneW tunes every
// group's width to it; TablesForRecall and EstimatedRecall invert it.
func PerTableRecall(recall float64, L int) float64 {
	return 1 - math.Pow(1-recall, 1/float64(L))
}
