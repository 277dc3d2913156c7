package httpx

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// Wire form of the per-query execution plan (core.Plan) plus the request
// validation both HTTP tiers share. The server and the router accept the
// same JSON body fields and the same URL query parameters, run the same
// Validate, and therefore emit byte-identical 400 bodies for the same bad
// input — the single place that keeps the two tiers from drifting apart
// on what a legal query request is. docs/api.md documents the parameters;
// docs/adaptive.md the semantics of each knob.

const (
	// DefaultK is the neighbor count used when a request omits k, the
	// long-standing single-node default now shared by both tiers.
	DefaultK = 10

	// MaxK caps the per-request neighbor count. Unbounded k would let one
	// request allocate result buffers proportional to an attacker-chosen
	// number; 4096 is far above any sensible shortlist re-rank.
	MaxK = 4096

	// PlanLimit bounds every count field of a wire plan, mirroring
	// core.Plan's own limit (and Options.Validate's ranges).
	PlanLimit = 1 << 20

	// MaxBodyBytes caps a request body on both tiers (queries are small;
	// batches are bounded by it).
	MaxBodyBytes = 64 << 20
)

// QueryPlan is the transport representation of a per-query execution
// plan. Zero value = no overrides = the serving tier's default plan. All
// fields are optional on the wire; URL query parameters (?probes=,
// ?recall=, ?rerank=, ?tables=, ?stable_probes=, ?max_candidates=)
// override the matching body fields when both are present.
type QueryPlan struct {
	// TargetRecall is the per-query recall SLO in (0, 1) (?recall=).
	TargetRecall float64 `json:"recall,omitempty"`
	// Probes overrides the multiprobe budget per table (?probes=).
	Probes int `json:"probes,omitempty"`
	// Tables caps how many hash tables are probed (?tables=).
	Tables int `json:"tables,omitempty"`
	// HierMinCandidates overrides the hierarchy bucket-size floor
	// (?hier_min=).
	HierMinCandidates int `json:"hier_min,omitempty"`
	// RerankFactor overrides the SQ8 exact re-rank multiplier (?rerank=).
	RerankFactor int `json:"rerank,omitempty"`
	// StableProbes arms plateau early termination (?stable_probes=).
	StableProbes int `json:"stable_probes,omitempty"`
	// MaxCandidates arms the shortlist-cap early termination
	// (?max_candidates=).
	MaxCandidates int `json:"max_candidates,omitempty"`
}

// IsZero reports whether the plan carries no overrides.
func (p QueryPlan) IsZero() bool { return p == QueryPlan{} }

// ApplyQueryParams folds the recognized URL query parameters into p,
// overriding any body-supplied values. Unparseable values are an error
// (the caller answers 400); parameters it does not recognize are left to
// the caller's own routing (e.g. ?stats=1, ?spill=).
func (p *QueryPlan) ApplyQueryParams(q url.Values) error {
	if v := q.Get("recall"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("query parameter recall=%q is not a number", v)
		}
		p.TargetRecall = f
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"probes", &p.Probes},
		{"tables", &p.Tables},
		{"hier_min", &p.HierMinCandidates},
		{"rerank", &p.RerankFactor},
		{"stable_probes", &p.StableProbes},
		{"max_candidates", &p.MaxCandidates},
	} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("query parameter %s=%q is not an integer", f.name, v)
		}
		*f.dst = n
	}
	return nil
}

// Validate reports whether every plan field is in range, mirroring
// core.Plan.Validate so a plan that passes here is accepted verbatim by
// the index. Both tiers run it and 400 on error, so the error text is the
// wire contract.
func (p QueryPlan) Validate() error {
	switch {
	case p.TargetRecall < 0 || p.TargetRecall >= 1:
		return fmt.Errorf("recall %g outside [0, 1)", p.TargetRecall)
	case p.Probes < 0 || p.Probes > PlanLimit:
		return fmt.Errorf("probes %d out of range [0, %d]", p.Probes, PlanLimit)
	case p.Tables < 0 || p.Tables > PlanLimit:
		return fmt.Errorf("tables %d out of range [0, %d]", p.Tables, PlanLimit)
	case p.HierMinCandidates < 0 || p.HierMinCandidates > PlanLimit:
		return fmt.Errorf("hier_min %d out of range [0, %d]", p.HierMinCandidates, PlanLimit)
	case p.RerankFactor < 0 || p.RerankFactor > PlanLimit:
		return fmt.Errorf("rerank %d out of range [0, %d]", p.RerankFactor, PlanLimit)
	case p.StableProbes < 0 || p.StableProbes > PlanLimit:
		return fmt.Errorf("stable_probes %d out of range [0, %d]", p.StableProbes, PlanLimit)
	case p.MaxCandidates < 0 || p.MaxCandidates > PlanLimit:
		return fmt.Errorf("max_candidates %d out of range [0, %d]", p.MaxCandidates, PlanLimit)
	}
	return nil
}

// NormalizeK is the shared k policy: 0 means "use the default", negative
// or absurdly large k is a client error. Historically the single-node
// server silently defaulted any k <= 0 to 10 while the router rejected
// k < 1 — NormalizeK makes both tiers answer identically.
func NormalizeK(k int) (int, error) {
	switch {
	case k == 0:
		return DefaultK, nil
	case k < 0:
		return 0, fmt.Errorf("k %d must be positive", k)
	case k > MaxK:
		return 0, fmt.Errorf("k %d exceeds maximum %d", k, MaxK)
	}
	return k, nil
}

// DecodePlanRequest is the shared validation pipeline both tiers run on a
// query request after decoding its body: normalize k, fold the URL query
// parameters into wp, validate the result. On any failure it writes the
// 400 itself (structured {"error": ...} body) and reports false — since
// the server and the router both funnel through here, the same bad
// request draws byte-identical error bodies from either tier.
func DecodePlanRequest(w http.ResponseWriter, r *http.Request, k int, wp *QueryPlan) (int, bool) {
	k, err := NormalizeK(k)
	if err != nil {
		Error(w, http.StatusBadRequest, "%v", err)
		return 0, false
	}
	if err := wp.ApplyQueryParams(r.URL.Query()); err != nil {
		Error(w, http.StatusBadRequest, "%v", err)
		return 0, false
	}
	if err := wp.Validate(); err != nil {
		Error(w, http.StatusBadRequest, "%v", err)
		return 0, false
	}
	return k, true
}

// NonEmptyBatch answers 400 when a /batch body carries no vectors and
// reports whether it carries any.
func NonEmptyBatch(w http.ResponseWriter, vectors [][]float32) bool {
	if len(vectors) == 0 {
		Error(w, http.StatusBadRequest, "batch needs at least one vector")
		return false
	}
	return true
}

// DecodeDelete decodes a /delete body and returns its id. The id is
// decoded through a pointer, so a body without one is told apart from
// id 0: a missing or negative id is a 400. Like DecodeBody it writes the
// 400 itself and reports success.
func DecodeDelete(w http.ResponseWriter, r *http.Request) (int, bool) {
	var req struct {
		ID *int `json:"id"`
	}
	if !DecodeBody(w, r, MaxBodyBytes, &req) {
		return 0, false
	}
	if req.ID == nil || *req.ID < 0 {
		Error(w, http.StatusBadRequest, `delete needs a non-negative "id"`)
		return 0, false
	}
	return *req.ID, true
}

// WantStats reports whether the request opted into per-query PlanStats in
// the response (?stats=1, or any truthy value strconv recognizes).
func WantStats(q url.Values) bool {
	v := q.Get("stats")
	if v == "" {
		return false
	}
	b, err := strconv.ParseBool(v)
	return err == nil && b
}
