package server

import (
	"context"

	"bilsh/internal/core"
	"bilsh/internal/httpx"
	"bilsh/internal/metrics"
	"bilsh/internal/tuner"
)

// The adaptive side of the server: the default execution plan applied to
// requests that carry no overrides, and the online re-tuning loop that
// republishes it from observed traffic. Both live in the front end the
// router shares (httpx.Front); this file converts between the wire plan
// and core.Plan and names the server's signal. See docs/adaptive.md.

// DefaultPlan returns the server's current default plan (zero value when
// none was ever set: the index's built budgets).
func (s *Server) DefaultPlan() core.Plan { return corePlan(s.front.DefaultPlan(), 0) }

// SetDefaultPlan atomically replaces the default plan applied to requests
// without their own overrides. The plan's K is ignored — per-request k
// always wins. Safe to call while queries are in flight.
func (s *Server) SetDefaultPlan(p core.Plan) {
	s.front.SetDefaultPlan(httpx.QueryPlan{
		TargetRecall:      p.TargetRecall,
		Probes:            p.Probes,
		Tables:            p.Tables,
		HierMinCandidates: p.HierMinCandidates,
		RerankFactor:      p.RerankFactor,
		StableProbes:      p.StableProbes,
		MaxCandidates:     p.MaxCandidates,
	})
}

// corePlan is the core plan for wire plan p and k neighbors.
func corePlan(p httpx.QueryPlan, k int) core.Plan {
	return core.Plan{
		K:                 k,
		TargetRecall:      p.TargetRecall,
		Probes:            p.Probes,
		Tables:            p.Tables,
		HierMinCandidates: p.HierMinCandidates,
		RerankFactor:      p.RerankFactor,
		StableProbes:      p.StableProbes,
		MaxCandidates:     p.MaxCandidates,
	}
}

// AdaptiveConfig configures the online re-tuning loop; both tiers take
// the same one.
type AdaptiveConfig = httpx.AdaptiveConfig

// StartAdaptive launches the online tuning loop (httpx.Front.StartAdaptive)
// over the live per-query candidates histogram, resolving the recall
// target into a table budget against the index's built L and recall.
// Returns immediately; the loop runs until ctx is done.
func (s *Server) StartAdaptive(ctx context.Context, cfg AdaptiveConfig) {
	opts := s.ix.Options()
	s.front.StartAdaptive(ctx, cfg, tuner.OnlineConfig{
		// Get-or-create semantics hand back the very histogram core's hot
		// path records into (same name, same bounds).
		Candidates: metrics.Default().Histogram(
			"bilsh_core_query_candidates",
			"Distinct short-list candidates per query (|A(v)|).",
			metrics.DefCountBuckets),
		BuiltRecall: opts.TuneTargetRecall,
		Tables:      opts.Params.L,
	})
}
