// Package server exposes a Bi-level LSH index over HTTP with a small JSON
// API — the deployment shape for using the index as a shared similarity
// service. Handlers are safe for concurrent use and lock-free: the core
// index publishes immutable snapshots, so queries are served without any
// server-side locking and mutations serialize inside the index itself
// (see docs/concurrency.md).
//
// Endpoints:
//
//	GET  /healthz          -> 200 "ok"
//	GET  /info             -> index description (JSON)
//	GET  /metrics          -> process metrics (Prometheus text or JSON)
//	POST /query            -> {"vector":[...], "k":10}            -> neighbors
//	POST /batch            -> {"vectors":[[...],...], "k":10}     -> neighbor lists
//	POST /insert           -> {"vector":[...]}                    -> {"id":...}
//	POST /delete           -> {"id":...}                          -> {"deleted":bool}
//	POST /compact          -> {}                                  -> {"live":...}
//	POST /compact          -> {"async":true}                      -> 202 {"status":"started"}
//	POST /save             -> {}                                  -> {"status":"saved"}
//	GET  /shard/info       -> shard identity + index vitals (JSON)
//	GET  /checkpoint       -> durable checkpoint bytes (replica bring-up)
//	GET  /idmap            -> id map dump ("local global" lines)
//
// The shard endpoints back the sharded serving tier (docs/sharding.md):
// /shard/info always answers (shard -1 when the server is standalone),
// while /checkpoint requires EnableCheckpointFetch — `bilsh shard-serve
// -data-dir` wires it — and /idmap requires SetIDMap; both answer 403
// otherwise. With SetIDMap
// installed, result ids, insert assignments and delete targets are
// cluster-global ids rather than shard-local row ids (see IDMap).
//
// /save persists the index through the function installed with EnableSave
// (a durable checkpoint under `bilsh serve -data-dir`, an atomic rewrite
// of the index file otherwise) and answers 403 when no persistence is
// configured, 409 when the index has pending overlay state that the save
// path cannot fold itself (core.ErrDirtyIndex) or a compaction is already
// running (core.ErrCompactBusy).
//
// Vectors are JSON arrays of numbers with the index's dimensionality;
// NaN and infinite components are rejected with 400 at the boundary.
//
// With EnablePprof(true), the net/http/pprof handlers are mounted under
// /debug/pprof/. /healthz, /metrics, the 405 rule, the metrics middleware,
// the default plan and Serve's graceful drain are the front end the router
// shares (httpx.Front; docs/metrics.md lists the middleware's metrics).
package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/httpx"
	"bilsh/internal/metrics"
	"bilsh/internal/vec"
)

// Mutator is the write-side interface the mutation endpoints call.
// *core.Index satisfies it (the default), and *core.DurableIndex overrides
// the same methods with write-ahead-logged variants; SetMutator installs
// the latter so a durable server never mutates the index behind its log.
type Mutator interface {
	Insert(v []float32) (int, error)
	Delete(id int) bool
	Compact() ([]int, error)
	CompactAsync() error
}

// Server wraps an index with the HTTP API.
type Server struct {
	ix *core.Index
	// mut receives insert/delete/compact calls; defaults to ix.
	mut Mutator
	// save, when set, backs POST /save.
	save func() error

	// mutable reports whether mutating endpoints are enabled.
	mutable bool

	// front is the HTTP front end shared with the router: registry,
	// /metrics and pprof switches, drain timeout and the default plan,
	// which the adaptive loop (StartAdaptive) republishes.
	front *httpx.Front

	// Shard-serving state (see shard.go): the cluster shard id (-1 when
	// standalone), the local↔global id translation, the durable data
	// directory backing GET /checkpoint, and the checkpoint generation
	// source for /shard/info.
	shardID int
	idmap   *IDMap
	ckptDir string
	gen     func() uint64
}

// New wraps ix. When mutable is false the insert/delete/compact endpoints
// return 403 (the safe default for disk-backed or shared indexes). The
// metrics endpoint is on and pprof is off by default.
func New(ix *core.Index, mutable bool) *Server {
	return &Server{
		ix:      ix,
		mut:     ix,
		mutable: mutable,
		front:   httpx.NewFront(metrics.Default()),
		shardID: -1,
	}
}

// EnableMetrics mounts or unmounts GET /metrics (on by default). Call
// before Handler.
func (s *Server) EnableMetrics(on bool) { s.front.Metrics = on }

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/
// (off by default: profiling endpoints reveal internals and cost CPU, so
// exposure is the operator's explicit choice). Call before Handler.
func (s *Server) EnablePprof(on bool) { s.front.Pprof = on }

// SetRegistry replaces the metrics registry (tests use isolated
// registries; production keeps the process-wide default). Call before
// Handler.
func (s *Server) SetRegistry(r *metrics.Registry) { s.front.Registry = r }

// SetMutator routes the mutation endpoints through m instead of the
// wrapped index — how `bilsh serve -data-dir` interposes the durable
// index, whose Insert/Delete/Compact write-ahead log every change. The
// query endpoints keep reading the wrapped index (the durable index
// embeds it, so both see the same snapshots). Call before Handler.
func (s *Server) SetMutator(m Mutator) { s.mut = m }

// EnableSave mounts POST /save backed by fn (nil leaves the endpoint
// answering 403). fn runs at most once at a time per the underlying
// index's own serialization; errors map to 409 for core.ErrDirtyIndex and
// core.ErrCompactBusy and 500 otherwise. Call before Handler.
func (s *Server) EnableSave(fn func() error) { s.save = fn }

// SetDrainTimeout bounds how long Serve waits for in-flight requests on
// shutdown (default 30s). Call before Serve.
func (s *Server) SetDrainTimeout(d time.Duration) { s.front.DrainTimeout = d }

// Serve runs the HTTP API on ln until ctx is cancelled, then drains
// in-flight requests for up to the drain timeout (httpx.Front.Serve). It
// returns nil after a clean drain, context.DeadlineExceeded if requests
// were still running when the timeout expired, or the listener's error.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return s.front.Serve(ctx, ln, s.Handler())
}

// ListenAndServe is Serve on a fresh TCP listener bound to addr.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	return s.Serve(ctx, ln)
}

// Handler returns the routed http.Handler: the server's endpoints plus
// the shared /healthz, /metrics and pprof, each behind the 405 rule and
// the metrics middleware (httpx.Front.Handler).
func (s *Server) Handler() http.Handler {
	return s.front.Handler(map[string]map[string]http.HandlerFunc{
		"/info":       {http.MethodGet: s.handleInfo},
		"/query":      {http.MethodPost: s.handleQuery},
		"/batch":      {http.MethodPost: s.handleBatch},
		"/insert":     {http.MethodPost: s.handleInsert},
		"/delete":     {http.MethodPost: s.handleDelete},
		"/compact":    {http.MethodPost: s.handleCompact},
		"/save":       {http.MethodPost: s.handleSave},
		"/shard/info": {http.MethodGet: s.handleShardInfo},
		"/checkpoint": {http.MethodGet: s.handleCheckpoint},
		"/idmap":      {http.MethodGet: s.handleIDMap},
	})
}

// neighbor is one result entry.
type neighbor struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"` // squared Euclidean distance
}

// queryRequest is the /query body, the shape the router forwards to
// shards. The embedded plan fields (recall, probes, tables, hier_min,
// rerank, stable_probes, max_candidates) ride inline in the same JSON
// object; URL query parameters of the same names override them (see
// internal/httpx).
type queryRequest httpx.QueryRequest

// fields is the request's field table for httpx.DecodeRequest.
func (q *queryRequest) fields() []httpx.Field {
	return q.QueryPlan.Fields(httpx.VectorField("vector", &q.Vector), httpx.IntField("k", &q.K))
}

// planStats is the wire form of core.PlanStats, attached to responses
// when the request asks for it with ?stats=1.
type planStats struct {
	Scanned         int  `json:"scanned"`
	Probes          int  `json:"probes"`
	TablesProbed    int  `json:"tables_probed"`
	ResolvedTables  int  `json:"resolved_tables"`
	ResolvedProbes  int  `json:"resolved_probes"`
	TerminatedEarly bool `json:"terminated_early"`
}

func toPlanStats(ps core.PlanStats) *planStats {
	return &planStats{
		Scanned:         ps.Scanned,
		Probes:          ps.Probes,
		TablesProbed:    ps.TablesProbed,
		ResolvedTables:  ps.ResolvedTables,
		ResolvedProbes:  ps.ResolvedProbes,
		TerminatedEarly: ps.TerminatedEarly,
	}
}

// AppendJSON encodes the stats block as encoding/json does.
func (ps *planStats) AppendJSON(r *httpx.Reply) {
	r.Raw(`{"scanned":`)
	r.Int(ps.Scanned)
	r.Raw(`,"probes":`)
	r.Int(ps.Probes)
	r.Raw(`,"tables_probed":`)
	r.Int(ps.TablesProbed)
	r.Raw(`,"resolved_tables":`)
	r.Int(ps.ResolvedTables)
	r.Raw(`,"resolved_probes":`)
	r.Int(ps.ResolvedProbes)
	r.Raw(`,"terminated_early":`)
	r.Bool(ps.TerminatedEarly)
	r.Raw("}")
}

// queryResponse is the /query reply.
type queryResponse struct {
	Neighbors  []neighbor `json:"neighbors"`
	Candidates int        `json:"candidates"`
	Group      int        `json:"group"`
	Stats      *planStats `json:"stats,omitempty"`
}

// AppendJSON encodes the reply as encoding/json does.
func (q *queryResponse) AppendJSON(r *httpx.Reply) {
	r.Raw(`{"neighbors":`)
	httpx.List(r, q.Neighbors, func(r *httpx.Reply, n neighbor) { r.Neighbor(n.ID, n.Dist) })
	r.Raw(`,"candidates":`)
	r.Int(q.Candidates)
	r.Raw(`,"group":`)
	r.Int(q.Group)
	if q.Stats != nil {
		r.Raw(`,"stats":`)
		q.Stats.AppendJSON(r)
	}
	r.Raw("}")
}

// batchRequest is the /batch body; plan fields ride inline like /query.
type batchRequest struct {
	Vectors [][]float32 `json:"vectors"`
	K       int         `json:"k"`
	Workers int         `json:"workers,omitempty"`
	httpx.QueryPlan
}

// fields is the request's field table for httpx.DecodeRequest.
func (b *batchRequest) fields() []httpx.Field {
	return b.QueryPlan.Fields(httpx.VectorsField("vectors", &b.Vectors),
		httpx.IntField("k", &b.K), httpx.IntField("workers", &b.Workers))
}

// batchResponse is the /batch reply.
type batchResponse struct {
	Results []queryResponse `json:"results"`
}

// AppendJSON encodes the reply as encoding/json does.
func (b *batchResponse) AppendJSON(r *httpx.Reply) {
	r.Raw(`{"results":`)
	httpx.List(r, b.Results, func(r *httpx.Reply, q queryResponse) { q.AppendJSON(r) })
	r.Raw("}")
}

// insertResponse is the /insert reply.
type insertResponse struct {
	ID int `json:"id"`
}

// AppendJSON encodes the reply as encoding/json does.
func (ir *insertResponse) AppendJSON(r *httpx.Reply) {
	r.Raw(`{"id":`)
	r.Int(ir.ID)
	r.Raw("}")
}

// compactRequest is the /compact body. The zero value ({}) requests a
// synchronous compaction.
type compactRequest struct {
	Async bool `json:"async,omitempty"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, s.ix.Describe())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !httpx.DecodeRequest(w, r, httpx.MaxBodyBytes, &req, req.fields()) {
		return
	}
	k, ok := httpx.DecodePlanRequest(w, r, req.K, &req.QueryPlan)
	if !ok {
		return
	}
	if err := core.CheckVector(s.ix.Dim(), req.Vector); err != nil {
		httpx.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, ps := s.ix.QueryPlan(req.Vector, corePlan(s.front.PlanFor(req.QueryPlan), k))
	resp := s.toResponse(res.IDs, res.Dists, ps.QueryStats)
	if httpx.WantStats(r.URL.Query()) {
		resp.Stats = toPlanStats(ps)
	}
	httpx.WriteReply(w, http.StatusOK, &resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
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
	d := s.ix.Dim()
	for i, v := range req.Vectors {
		if err := core.CheckVector(d, v); err != nil {
			httpx.Error(w, http.StatusBadRequest, "vector %d: %v", i, err)
			return
		}
	}
	queries := vec.FromRows(req.Vectors)
	results, stats := s.ix.QueryBatchParallelPlan(queries, corePlan(s.front.PlanFor(req.QueryPlan), k), req.Workers)
	wantStats := httpx.WantStats(r.URL.Query())
	resp := batchResponse{Results: make([]queryResponse, len(results))}
	for i := range results {
		resp.Results[i] = s.toResponse(results[i].IDs, results[i].Dists, stats[i].QueryStats)
		if wantStats {
			resp.Results[i].Stats = toPlanStats(stats[i])
		}
	}
	httpx.WriteReply(w, http.StatusOK, &resp)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if !s.requireMutable(w) {
		return
	}
	// An omitted ID has the shard assign max+1.
	var req httpx.InsertRequest
	if !httpx.DecodeRequest(w, r, httpx.MaxBodyBytes, &req, httpx.InsertFields(&req)) {
		return
	}
	// Validate at the boundary so a bad vector is a 400 and any error out
	// of the mutator itself (e.g. a WAL write failure) is a 500, not
	// misreported as a client mistake.
	if err := core.CheckVector(s.ix.Dim(), req.Vector); err != nil {
		httpx.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.idmap == nil {
		if req.ID != nil {
			httpx.Error(w, http.StatusBadRequest,
				"id assignment requires a shard id map (serve the index with bilsh shard-serve -idmap)")
			return
		}
		id, err := s.mut.Insert(req.Vector)
		if err != nil {
			httpx.Error(w, http.StatusInternalServerError, "%v", err)
			return
		}
		httpx.WriteReply(w, http.StatusOK, &insertResponse{ID: id})
		return
	}
	gid := -1
	if req.ID != nil {
		if *req.ID < 0 {
			httpx.Error(w, http.StatusBadRequest, "id must be non-negative, got %d", *req.ID)
			return
		}
		gid = *req.ID
	}
	gid, err := s.idmap.InsertWith(gid, func() (int, error) { return s.mut.Insert(req.Vector) })
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrDuplicateGlobalID) {
			status = http.StatusConflict
		}
		httpx.Error(w, status, "%v", err)
		return
	}
	httpx.WriteReply(w, http.StatusOK, &insertResponse{ID: gid})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.requireMutable(w) {
		return
	}
	id, ok := httpx.DecodeDelete(w, r)
	if !ok {
		return
	}
	if s.idmap != nil {
		// Delete targets arrive as global ids; a global id this shard
		// does not hold is simply not deleted here (the router
		// broadcasts deletes, so exactly one shard answers true).
		local, ok := s.idmap.Local(id)
		if !ok {
			httpx.WriteJSON(w, http.StatusOK, map[string]bool{"deleted": false})
			return
		}
		id = local
	}
	ok = s.mut.Delete(id)
	httpx.WriteJSON(w, http.StatusOK, map[string]bool{"deleted": ok})
}

// handleCompact folds the overlay into fresh base structures. The default
// is synchronous (the response carries the post-compaction live count);
// {"async":true} starts the rebuild in the background and answers 202
// immediately — poll /info's Epoch/PendingInserts to observe completion.
// A compaction already in progress answers 409 either way.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if !s.requireMutable(w) {
		return
	}
	var req compactRequest
	if !httpx.DecodeBody(w, r, httpx.MaxBodyBytes, &req) {
		return
	}
	if req.Async {
		if s.idmap != nil {
			// Compaction renumbers local ids and CompactAsync discards the
			// remap, which would silently desynchronize the id map.
			httpx.Error(w, http.StatusConflict,
				"async compaction is unavailable with an id map installed (the id remap must be applied); use synchronous compact")
			return
		}
		if err := s.mut.CompactAsync(); err != nil {
			httpx.Error(w, conflictOr500(err), "%v", err)
			return
		}
		httpx.WriteJSON(w, http.StatusAccepted, map[string]string{"status": "started"})
		return
	}
	remap, err := s.mut.Compact()
	if err != nil {
		httpx.Error(w, conflictOr500(err), "%v", err)
		return
	}
	if s.idmap != nil {
		// Keep global ids stable across the local renumbering. A failure
		// here is fatal for the mapping, not the index — surface it loudly.
		if err := s.idmap.Remap(remap); err != nil {
			httpx.Error(w, http.StatusInternalServerError, "compacted, but remapping the id map failed: %v", err)
			return
		}
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]int{"live": s.ix.Len()})
}

// handleSave persists the index through the EnableSave callback. Without
// one the endpoint is 403 (read-only deployments have nowhere to save
// to); a dirty in-memory index or a checkpoint already in progress is the
// caller's race to retry, 409.
func (s *Server) handleSave(w http.ResponseWriter, _ *http.Request) {
	if s.save == nil {
		httpx.Error(w, http.StatusForbidden, "save is not configured (start the server with -data-dir or a writable -index)")
		return
	}
	if err := s.save(); err != nil {
		httpx.Error(w, conflictOr500(err), "%v", err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "saved"})
}

// conflictOr500 distinguishes retry-the-race errors from server faults.
// Earlier versions reported every compaction failure as 409, which hid
// real I/O errors behind a retryable status.
func conflictOr500(err error) int {
	if errors.Is(err, core.ErrCompactBusy) || errors.Is(err, core.ErrDirtyIndex) {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

func (s *Server) requireMutable(w http.ResponseWriter) bool {
	if !s.mutable {
		httpx.Error(w, http.StatusForbidden, "index is read-only (start the server with -mutable)")
		return false
	}
	return true
}

func (s *Server) toResponse(ids []int, dists []float64, st core.QueryStats) queryResponse {
	resp := queryResponse{
		Neighbors:  make([]neighbor, len(ids)),
		Candidates: st.Candidates,
		Group:      st.Group,
	}
	for i := range ids {
		id := ids[i]
		if s.idmap != nil {
			id = s.idmap.Global(id)
		}
		resp.Neighbors[i] = neighbor{ID: id, Dist: dists[i]}
	}
	return resp
}
