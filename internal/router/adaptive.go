package router

import (
	"context"

	"bilsh/internal/httpx"
	"bilsh/internal/tuner"
)

// The adaptive side of the router: a default wire plan forwarded to
// shards for requests without overrides, re-tuned online from the
// per-shard shortlist sizes the router observes in every reply. Plan and
// loop are the front end the server shares (httpx.Front). Unlike the
// single-node server the router does not know the shards' built
// parameters (L, TuneTargetRecall) — and in a mixed cluster there is no
// single answer — so it passes none, its recommendations carry
// TargetRecall and MaxCandidates only, and each shard resolves the recall
// target into a table budget against its own index. See docs/adaptive.md.

// DefaultPlan returns the router's current default plan (zero when none
// was set).
func (rt *Router) DefaultPlan() httpx.QueryPlan { return rt.front.DefaultPlan() }

// SetDefaultPlan atomically replaces the default plan forwarded to shards
// for requests without their own overrides. Safe to call while queries
// are in flight.
func (rt *Router) SetDefaultPlan(p httpx.QueryPlan) { rt.front.SetDefaultPlan(p) }

// AdaptiveConfig configures the online re-tuning loop; both tiers take
// the same one.
type AdaptiveConfig = httpx.AdaptiveConfig

// StartAdaptive launches the online tuning loop (httpx.Front.StartAdaptive)
// over the router's per-shard candidates histogram. MaxCandidates is a
// per-shard cap: the histogram observes per-shard shortlist sizes, so the
// mean is per-shard collision mass. Returns immediately.
func (rt *Router) StartAdaptive(ctx context.Context, cfg AdaptiveConfig) {
	rt.front.StartAdaptive(ctx, cfg, tuner.OnlineConfig{Candidates: rt.metCandidates})
}
