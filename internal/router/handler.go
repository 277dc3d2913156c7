package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"bilsh/internal/httpx"
)

// HTTP front end of the router. The endpoint shapes deliberately mirror
// the shard server's (internal/server) so clients can point at either a
// single node or a cluster without changing request bodies; the extras
// are the cluster-only fields (spill, shards_contacted, partial) and the
// /router/* introspection endpoints; /healthz, /metrics, the 405 rule,
// the middleware and the graceful drain are the front end both tiers
// share (httpx.Front). docs/api.md documents every route.

// Handler returns the router's HTTP handler: its endpoints plus the
// shared /healthz and /metrics, each behind the 405 rule and the metrics
// middleware.
func (rt *Router) Handler() http.Handler {
	return rt.front.Handler(map[string]map[string]http.HandlerFunc{
		"/info":          {http.MethodGet: rt.handleInfo},
		"/router/shards": {http.MethodGet: rt.handleShards},
		"/query":         {http.MethodPost: rt.handleQuery},
		"/batch":         {http.MethodPost: rt.handleBatch},
		"/insert":        {http.MethodPost: rt.handleInsert},
		"/delete":        {http.MethodPost: rt.handleDelete},
	})
}

// SetDrainTimeout bounds how long Serve waits for in-flight requests on
// shutdown (default 30s). Call before Serve.
func (rt *Router) SetDrainTimeout(d time.Duration) { rt.front.DrainTimeout = d }

// Serve runs the router's HTTP API on ln until ctx is cancelled, then
// drains in-flight requests for up to the drain timeout
// (httpx.Front.Serve). It returns nil after a clean drain,
// context.DeadlineExceeded if requests were still running when the
// timeout expired, or the listener's error.
func (rt *Router) Serve(ctx context.Context, ln net.Listener) error {
	return rt.front.Serve(ctx, ln, rt.Handler())
}

func (rt *Router) handleInfo(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"role":           "router",
		"shards":         rt.m.NumShards(),
		"leaves":         rt.m.NumLeaves(),
		"leaf_aware":     rt.m.LeafAware(),
		"dim":            rt.m.Dim(),
		"spill":          rt.spill,
		"uptime_seconds": int64(rt.front.Uptime().Seconds()),
	})
}

func (rt *Router) handleShards(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string]interface{}{"addrs": rt.Health()})
}

type queryRequest struct {
	Vector []float32 `json:"vector"`
	K      int       `json:"k"`
	// Spill overrides the router's default leaf probe budget for this
	// query (0 = use the default).
	Spill int `json:"spill"`
	// The embedded plan fields (recall, probes, tables, hier_min, rerank,
	// stable_probes, max_candidates) are forwarded to shards; URL
	// parameters of the same names override them, exactly like the shard
	// server's own /query.
	httpx.QueryPlan
}

// fields is the request's field table for httpx.DecodeRequest.
func (q *queryRequest) fields() []httpx.Field {
	return q.QueryPlan.Fields(httpx.VectorField("vector", &q.Vector),
		httpx.IntField("k", &q.K), httpx.IntField("spill", &q.Spill))
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !httpx.DecodeRequest(w, r, httpx.MaxBodyBytes, &req, req.fields()) {
		return
	}
	k, ok := httpx.DecodePlanRequest(w, r, req.K, &req.QueryPlan)
	if !ok {
		return
	}
	res, err := rt.QueryPlan(r.Context(), req.Vector, k, req.Spill, req.QueryPlan, httpx.WantStats(r.URL.Query()))
	if err != nil {
		rt.writeError(w, err)
		return
	}
	httpx.WriteReply(w, http.StatusOK, res)
}

type batchRequest struct {
	Vectors [][]float32 `json:"vectors"`
	K       int         `json:"k"`
	Spill   int         `json:"spill"`
	httpx.QueryPlan
}

// fields is the request's field table for httpx.DecodeRequest.
func (b *batchRequest) fields() []httpx.Field {
	return b.QueryPlan.Fields(httpx.VectorsField("vectors", &b.Vectors),
		httpx.IntField("k", &b.K), httpx.IntField("spill", &b.Spill))
}

// batchResponse is the /batch reply.
type batchResponse struct {
	Results []*Result `json:"results"`
}

// AppendJSON encodes the reply as encoding/json does.
func (b *batchResponse) AppendJSON(r *httpx.Reply) {
	r.Raw(`{"results":`)
	httpx.List(r, b.Results, func(r *httpx.Reply, res *Result) { res.AppendJSON(r) })
	r.Raw("}")
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !httpx.DecodeRequest(w, r, httpx.MaxBodyBytes, &req, req.fields()) {
		return
	}
	k, ok := httpx.DecodePlanRequest(w, r, req.K, &req.QueryPlan)
	if !ok {
		return
	}
	if !httpx.NonEmptyBatch(w, req.Vectors) {
		return
	}
	wantStats := httpx.WantStats(r.URL.Query())
	results := make([]*Result, len(req.Vectors))
	for i, v := range req.Vectors {
		res, err := rt.QueryPlan(r.Context(), v, k, req.Spill, req.QueryPlan, wantStats)
		if err != nil {
			rt.writeError(w, fmt.Errorf("vector %d: %w", i, err))
			return
		}
		results[i] = res
	}
	httpx.WriteReply(w, http.StatusOK, &batchResponse{Results: results})
}

// insertRequest is the router's /insert body; the router assigns the id.
// It aliases an unnamed struct, as httpx.InsertRequest does, so that
// encoding/json's 400 bodies name no type, as they always have.
type insertRequest = struct {
	Vector []float32 `json:"vector"`
}

// insertFields is insertRequest's field table for httpx.DecodeRequest.
func insertFields(q *insertRequest) []httpx.Field {
	return []httpx.Field{httpx.VectorField("vector", &q.Vector)}
}

// insertResponse is the /insert reply.
type insertResponse struct {
	ID    int `json:"id"`
	Shard int `json:"shard"`
}

// AppendJSON encodes the reply as encoding/json does.
func (ir *insertResponse) AppendJSON(r *httpx.Reply) {
	r.Raw(`{"id":`)
	r.Int(ir.ID)
	r.Raw(`,"shard":`)
	r.Int(ir.Shard)
	r.Raw("}")
}

func (rt *Router) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if !httpx.DecodeRequest(w, r, httpx.MaxBodyBytes, &req, insertFields(&req)) {
		return
	}
	gid, shard, err := rt.Insert(r.Context(), req.Vector)
	if err != nil {
		rt.writeError(w, err)
		return
	}
	httpx.WriteReply(w, http.StatusOK, &insertResponse{ID: gid, Shard: shard})
}

func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, ok := httpx.DecodeDelete(w, r)
	if !ok {
		return
	}
	res := rt.Delete(r.Context(), id)
	status := http.StatusOK
	if len(res.FailedShards) > 0 {
		// The id may live on an unreachable shard — the delete is not
		// known to have happened cluster-wide.
		status = http.StatusBadGateway
	}
	httpx.WriteJSON(w, status, res)
}

// writeError maps router errors onto the structured JSON error shape:
// client mistakes are 400, shard-side failures are 502 (the router is
// fine; an upstream is not).
func (rt *Router) writeError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrBadQuery) {
		httpx.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	httpx.Error(w, http.StatusBadGateway, "%v", err)
}
