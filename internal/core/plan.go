package core

import (
	"fmt"

	"bilsh/internal/tuner"
)

// Plan is a per-query execution plan: the transport-agnostic description of
// how much work one query may spend, threaded unchanged from the HTTP
// tiers (internal/server, internal/router) down to the probe loop. The
// zero value (plus a K) reproduces the index's build-time budgets exactly —
// Query(q, k) is a thin wrapper over QueryPlan(q, Plan{K: k}) — so a plan
// only ever *modifies* behavior when a field is set.
//
// Fields fall into three groups:
//
//   - budget overrides: Probes, Tables, HierMinCandidates, RerankFactor
//     replace the corresponding Options values for this query only;
//   - early termination: StableProbes and MaxCandidates stop the probe
//     loop once the shortlist's recall has plateaued (see below);
//   - SLO: TargetRecall asks the tuner's analytic collision model to
//     resolve a concrete table budget for this query.
//
// Early termination. The shortlist only ever grows, and the final top-k is
// a subset of it, so "no shortlist growth for P consecutive bucket probes"
// implies "no top-k change for P consecutive probes" — the plateau signal
// of Claydon et al.'s dynamic query modification, checkable without
// ranking mid-probe. StableProbes is that P. MaxCandidates caps the
// shortlist outright: once the gathered candidate set reaches it, the
// expected collision mass still uncollected is small and probing stops.
// Both default to 0 (off), and a query that stops early reports
// PlanStats.TerminatedEarly.
//
// SLO resolution. At build time, AutoTuneW chooses bucket widths so a true
// k-th neighbor collides with its query in one table with probability
// q = 1 − (1 − TuneTargetRecall)^(1/L) (Section IV-B of the paper; see
// internal/tuner). Under that model the recall after probing T tables is
// 1 − (1 − q)^T, so a per-query TargetRecall R resolves to the smallest
// T with 1 − (1 − q)^T ≥ R, clamped to [1, L]. An explicit Tables
// override wins over the resolved value.
type Plan struct {
	// K is the number of neighbors to return. Zero or negative returns an
	// empty result, exactly like Query.
	K int

	// TargetRecall, in (0, 1), is the per-query recall SLO resolved into a
	// table budget by the tuner's collision model. Zero disables SLO
	// resolution (the full built budget is used).
	TargetRecall float64

	// Probes overrides Options.Probes (ProbeMulti bucket probes per
	// table) for this query. Zero keeps the index default.
	Probes int

	// Tables caps how many of the L built tables this query probes.
	// Zero (or anything >= L) probes all of them.
	Tables int

	// HierMinCandidates overrides Options.HierMinCandidates, the
	// ProbeHierarchy bucket-size floor. In batch queries a positive value
	// replaces the paper's median rule for every query in the batch. Zero
	// keeps the index default (2k at query time; batch median rule).
	HierMinCandidates int

	// RerankFactor overrides Options.RerankFactor, the exact re-rank
	// shortlist multiplier under SQ8 quantization. Zero keeps the index
	// default.
	RerankFactor int

	// StableProbes stops probing after this many consecutive bucket
	// probes added no new shortlist candidate (recall plateau). Zero
	// disables.
	StableProbes int

	// MaxCandidates stops probing once the shortlist holds this many
	// candidates. Zero disables.
	MaxCandidates int
}

// planLimit bounds every count field of a Plan, mirroring the ranges
// Options.Validate enforces on build options.
const planLimit = 1 << 20

// Validate reports whether the plan's fields are in range. QueryPlan
// itself clamps silently (garbage in, bounded work out — the hot path
// never errors), so Validate is for boundaries that owe the caller a
// structured error: the HTTP tiers run it (internal/httpx mirrors the
// same ranges) and return 400.
func (p Plan) Validate() error {
	switch {
	case p.K < 0:
		return fmt.Errorf("core: plan K %d negative", p.K)
	case p.K > planLimit:
		return fmt.Errorf("core: plan K %d out of range [0, %d]", p.K, planLimit)
	case p.TargetRecall < 0 || p.TargetRecall >= 1:
		return fmt.Errorf("core: plan TargetRecall %g outside [0, 1)", p.TargetRecall)
	case p.Probes < 0 || p.Probes > planLimit:
		return fmt.Errorf("core: plan Probes %d out of range [0, %d]", p.Probes, planLimit)
	case p.Tables < 0 || p.Tables > planLimit:
		return fmt.Errorf("core: plan Tables %d out of range [0, %d]", p.Tables, planLimit)
	case p.HierMinCandidates < 0 || p.HierMinCandidates > planLimit:
		return fmt.Errorf("core: plan HierMinCandidates %d out of range [0, %d]", p.HierMinCandidates, planLimit)
	case p.RerankFactor < 0 || p.RerankFactor > planLimit:
		return fmt.Errorf("core: plan RerankFactor %d out of range [0, %d]", p.RerankFactor, planLimit)
	case p.StableProbes < 0 || p.StableProbes > planLimit:
		return fmt.Errorf("core: plan StableProbes %d out of range [0, %d]", p.StableProbes, planLimit)
	case p.MaxCandidates < 0 || p.MaxCandidates > planLimit:
		return fmt.Errorf("core: plan MaxCandidates %d out of range [0, %d]", p.MaxCandidates, planLimit)
	}
	return nil
}

// IsDefault reports whether the plan carries no overrides beyond K — such
// a plan reproduces Query(q, K) byte-identically.
func (p Plan) IsDefault() bool {
	return p == Plan{K: p.K}
}

// PlanStats is QueryStats plus the plan-level execution record: what the
// plan resolved to and whether the probe loop stopped before exhausting
// it. QueryStats.Probes is the bucket-probe count and QueryStats.Scanned
// the rows scanned (pre-dedup), so the embedded struct already carries
// the per-query work accounting.
type PlanStats struct {
	QueryStats

	// TablesProbed is the number of hash tables the probe loop entered
	// before finishing or terminating early.
	TablesProbed int

	// ResolvedTables and ResolvedProbes are the concrete budgets the plan
	// resolved to (defaults applied, SLO translated, overrides clamped).
	ResolvedTables int
	ResolvedProbes int

	// TerminatedEarly reports that an early-termination trigger
	// (StableProbes or MaxCandidates) stopped the probe loop before the
	// resolved budget was exhausted.
	TerminatedEarly bool
}

// resolvedPlan is a Plan with every default applied against a concrete
// snapshot: the form the probe loop executes. It lives on the stack —
// resolution must not allocate (Query's ≤2-allocs pin covers it).
type resolvedPlan struct {
	k             int
	mode          ProbeMode // the index's; the median rule's sizing pass runs ProbeSingle
	probes        int       // ProbeMulti probes per table
	tables        int       // tables probed, in [1, L]
	hierMin       int       // ProbeHierarchy floor (0 = 2k at query time)
	rerank        int       // 0 = index default
	stableProbes  int       // 0 = off
	maxCandidates int       // 0 = off
	target        float64   // resolved SLO (0 = none)
}

// term reports whether any early-termination trigger is armed; the probe
// loop checks this once and skips all plateau bookkeeping when false, so
// default plans pay nothing.
func (rp *resolvedPlan) term() bool {
	return rp.stableProbes > 0 || rp.maxCandidates > 0
}

// defaultResolved is the resolved form of Plan{K: k}: the index's built
// budgets, verbatim.
func (sn *snapshot) defaultResolved(k int) resolvedPlan {
	return resolvedPlan{
		k:       k,
		mode:    sn.opts.ProbeMode,
		probes:  sn.opts.Probes,
		tables:  sn.opts.Params.L,
		hierMin: sn.opts.HierMinCandidates,
	}
}

// resolve applies the snapshot's defaults and the tuner model to p.
// Out-of-range fields are clamped, never rejected (Validate is the
// erroring boundary).
func (sn *snapshot) resolve(p Plan) resolvedPlan {
	rp := sn.defaultResolved(p.K)
	L := sn.opts.Params.L
	if p.TargetRecall > 0 && p.TargetRecall < 1 {
		rp.target = p.TargetRecall
		rp.tables = tablesForRecall(p.TargetRecall, sn.opts.TuneTargetRecall, L)
	}
	if p.Tables > 0 {
		rp.tables = p.Tables
	}
	if rp.tables > L {
		rp.tables = L
	}
	if rp.tables < 1 {
		rp.tables = 1
	}
	if p.Probes > 0 {
		rp.probes = p.Probes
	}
	if p.HierMinCandidates > 0 {
		rp.hierMin = p.HierMinCandidates
	}
	if p.RerankFactor > 0 {
		rp.rerank = p.RerankFactor
	}
	if p.StableProbes > 0 {
		rp.stableProbes = p.StableProbes
	}
	if p.MaxCandidates > 0 {
		rp.maxCandidates = p.MaxCandidates
	}
	return rp
}

// tablesForRecall delegates to the tuner's analytic collision model
// (tuner.TablesForRecall), which inverts tuner.PerTableRecall, the
// per-table target AutoTuneW tunes every group's width to — one formula,
// one source of truth.
func tablesForRecall(target, built float64, L int) int {
	return tuner.TablesForRecall(target, built, L)
}

// EstimatedRecall reports the recall the build-time collision model
// predicts for probing tables of the L built tables (the inverse of the
// SLO resolution). Exposed for operators and the adaptive bench.
func (ix *Index) EstimatedRecall(tables int) float64 {
	opts := ix.loadSnap().opts
	return tuner.EstimatedRecall(tables, opts.TuneTargetRecall, opts.Params.L)
}

// termState is the per-query plateau bookkeeping of the early-termination
// policy. It lives on the stack of the gather loop.
type termState struct {
	prev   int // shortlist size after the previous probe
	stable int // consecutive probes without shortlist growth
}

// stop reports whether the probe loop should terminate after a bucket
// probe that left the shortlist at ncands candidates. Callers only invoke
// it when rp.term() is true.
func (rp *resolvedPlan) stop(ts *termState, ncands int) bool {
	if rp.maxCandidates > 0 && ncands >= rp.maxCandidates {
		return true
	}
	if rp.stableProbes > 0 {
		if ncands == ts.prev {
			ts.stable++
			if ts.stable >= rp.stableProbes {
				return true
			}
		} else {
			ts.stable = 0
		}
		ts.prev = ncands
	}
	return false
}
