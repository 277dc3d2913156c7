package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bilsh/internal/httpx"
	"bilsh/internal/metrics"
	"bilsh/internal/topk"
)

// ShardSet is the addresses serving one shard: Addrs[0] is the primary
// (the only address that takes mutations), the rest are read replicas.
type ShardSet struct {
	Addrs []string
}

// Options configures a Router.
type Options struct {
	// Map routes queries to shards. Required; use ScatterMap for
	// clusters split without a tree.
	Map *ShardMap
	// Shards lists the addresses of each shard, indexed by shard id.
	// len(Shards) must equal Map.NumShards().
	Shards []ShardSet
	// Spill is the number of level-1 leaves probed per query (default
	// 1: the home leaf only). Queries can override it per request.
	Spill int
	// Timeout bounds each shard request attempt (default 2s).
	Timeout time.Duration
	// HedgeDelay, when positive, launches a second attempt against the
	// next replica after this much silence — the hedged-request pattern
	// for cutting tail latency. Only read requests hedge.
	HedgeDelay time.Duration
	// Retries is the number of extra attempts (on other replicas when
	// available) after a failed read (default 1).
	Retries int
	// HealthInterval is the background health-probe cadence (default
	// 2s; probes start with Start).
	HealthInterval time.Duration
	// Registry receives the router metrics (default metrics.Default()).
	Registry *metrics.Registry
	// Client is the HTTP client for shard requests (default: a client
	// with sane connection pooling; per-attempt timeouts come from
	// Timeout, not the client).
	Client *http.Client
}

// Router is the scatter-gather front end over a set of shards.
type Router struct {
	m       *ShardMap
	clients []*shardClient
	spill   int

	// nextGID allocates cluster-global ids for inserts; seeded lazily
	// from the shards' reported max_global_id.
	gidMu   sync.Mutex
	gidInit bool
	nextGID int

	metQueries    *metrics.Counter
	metFanout     *metrics.Histogram
	metPartial    *metrics.Counter
	metHedges     *metrics.Counter
	metCandidates *metrics.Histogram

	health     *healthProber
	stopHealth context.CancelFunc

	// front is the HTTP front end shared with the single-node server:
	// middleware, /healthz, /metrics, the drain timeout and the default
	// plan forwarded to shards, which the adaptive loop (StartAdaptive)
	// republishes.
	front *httpx.Front
}

// fanoutBounds buckets the per-query shard fan-out width.
var fanoutBounds = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// New validates o and builds a router. It performs no network I/O;
// health probing starts with Start.
func New(o Options) (*Router, error) {
	if o.Map == nil {
		return nil, fmt.Errorf("router: Options.Map is required")
	}
	if len(o.Shards) != o.Map.NumShards() {
		return nil, fmt.Errorf("router: shard map expects %d shards, %d address sets given",
			o.Map.NumShards(), len(o.Shards))
	}
	for i, ss := range o.Shards {
		if len(ss.Addrs) == 0 {
			return nil, fmt.Errorf("router: shard %d has no addresses", i)
		}
	}
	if o.Spill < 1 {
		o.Spill = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 1
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	reg := o.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	hc := o.Client
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}

	rt := &Router{
		m:     o.Map,
		spill: o.Spill,
		front: httpx.NewFront(reg),
		metQueries: reg.Counter("bilsh_router_queries_total",
			"Queries routed (including partial results)."),
		metFanout: reg.Histogram("bilsh_router_fanout_shards",
			"Shards contacted per query.", fanoutBounds),
		metPartial: reg.Counter("bilsh_router_partial_results_total",
			"Queries answered with at least one shard missing."),
		metHedges: reg.Counter("bilsh_router_hedges_total",
			"Hedged (duplicate) shard requests launched after the hedge delay."),
		metCandidates: reg.Histogram("bilsh_router_candidates",
			"Per-shard shortlist candidates per query reply (the online tuner's collision-mass signal).",
			metrics.DefCountBuckets),
	}
	rt.clients = make([]*shardClient, len(o.Shards))
	for i, ss := range o.Shards {
		rt.clients[i] = newShardClient(i, ss.Addrs, hc, o.Timeout, o.HedgeDelay, o.Retries, reg, rt.metHedges)
	}
	rt.health = &healthProber{rt: rt, interval: o.HealthInterval}
	return rt, nil
}

// Neighbor is one merged result entry (cluster-global id, squared
// Euclidean distance).
type Neighbor struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

// Result is a merged cluster query result. Partial results are a
// deliberate degradation mode: when a shard is unreachable the router
// answers from the shards it could reach and says so, rather than
// failing the query outright (docs/sharding.md, failure matrix).
type Result struct {
	Neighbors []Neighbor `json:"neighbors"`
	// Candidates sums the per-shard candidate counts (the cluster-wide
	// short-list size).
	Candidates int `json:"candidates"`
	// ShardsContacted is the fan-out width of this query.
	ShardsContacted int `json:"shards_contacted"`
	// FailedShards lists shards that answered no attempt in time;
	// Partial mirrors len(FailedShards) > 0.
	FailedShards []int `json:"failed_shards,omitempty"`
	Partial      bool  `json:"partial"`
	// Stats aggregates the per-shard PlanStats when the request asked for
	// them (?stats=1); nil otherwise.
	Stats *ResultStats `json:"stats,omitempty"`
}

// AppendJSON encodes the result as encoding/json does.
func (res *Result) AppendJSON(r *httpx.Reply) {
	r.Raw(`{"neighbors":`)
	httpx.List(r, res.Neighbors, func(r *httpx.Reply, n Neighbor) { r.Neighbor(n.ID, n.Dist) })
	r.Raw(`,"candidates":`)
	r.Int(res.Candidates)
	r.Raw(`,"shards_contacted":`)
	r.Int(res.ShardsContacted)
	if len(res.FailedShards) > 0 {
		r.Raw(`,"failed_shards":`)
		httpx.List(r, res.FailedShards, (*httpx.Reply).Int)
	}
	r.Raw(`,"partial":`)
	r.Bool(res.Partial)
	if st := res.Stats; st != nil {
		r.Raw(`,"stats":{"scanned":`)
		r.Int(st.Scanned)
		r.Raw(`,"probes":`)
		r.Int(st.Probes)
		r.Raw(`,"tables_probed":`)
		r.Int(st.TablesProbed)
		r.Raw(`,"resolved_tables":`)
		r.Int(st.ResolvedTables)
		r.Raw(`,"terminated_early":`)
		r.Int(st.TerminatedEarly)
		r.Raw(`,"reporting_shards":`)
		r.Int(st.ReportingShards)
		r.Raw("}")
	}
	r.Raw("}")
}

// ResultStats is the FailedShards-aware aggregation of the per-shard
// PlanStats: sums cover only the shards that answered (ReportingShards of
// ShardsContacted), so a partial result's work counters honestly reflect
// the work that actually happened rather than guessing at the dead
// shard's share.
type ResultStats struct {
	// Scanned and Probes sum the per-shard work counters.
	Scanned int `json:"scanned"`
	Probes  int `json:"probes"`
	// TablesProbed sums tables entered across shards; ResolvedTables sums
	// the per-shard budgets, so the two compare like-for-like.
	TablesProbed   int `json:"tables_probed"`
	ResolvedTables int `json:"resolved_tables"`
	// TerminatedEarly counts shards whose probe loop stopped early.
	TerminatedEarly int `json:"terminated_early"`
	// ReportingShards is how many shard replies carried stats (failed
	// shards never do).
	ReportingShards int `json:"reporting_shards"`
}

// ErrBadQuery marks client mistakes (dimension mismatch, bad k) so the
// HTTP layer can answer 400 rather than 500.
var ErrBadQuery = errors.New("router: bad query")

// Query fans v out to the shards its probe set touches (spill <= 0 uses
// the router default) and merges the per-shard shortlists into one
// top-k. The error is non-nil only for invalid input; shard failures
// surface as a partial Result. Query(ctx, v, k, spill) is
// QueryPlan(ctx, v, k, spill, zero plan, no stats).
func (rt *Router) Query(ctx context.Context, v []float32, k, spill int) (*Result, error) {
	return rt.QueryPlan(ctx, v, k, spill, httpx.QueryPlan{}, false)
}

// QueryPlan is Query under an explicit per-query execution plan. The plan
// (merged over the router's default plan; request fields win) is
// forwarded verbatim to every contacted shard, which re-resolves any
// TargetRecall SLO against its own built parameters. With wantStats, each
// shard reports its PlanStats and the merge aggregates them
// FailedShards-aware into Result.Stats.
func (rt *Router) QueryPlan(ctx context.Context, v []float32, k, spill int, plan httpx.QueryPlan, wantStats bool) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k must be >= 1, got %d", ErrBadQuery, k)
	}
	if dim := rt.m.Dim(); dim != 0 && len(v) != dim {
		return nil, fmt.Errorf("%w: vector has dim %d, shard map wants %d", ErrBadQuery, len(v), dim)
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	plan = rt.front.PlanFor(plan)
	if spill <= 0 {
		spill = rt.spill
	}
	targets := rt.m.ShardsFor(v, spill)
	rt.metQueries.Inc()
	rt.metFanout.Observe(float64(len(targets)))

	path := "/query"
	if wantStats {
		path = "/query?stats=1"
	}
	type shardReply struct {
		shard int
		resp  shardQueryResponse
		err   error
	}
	replies := make([]shardReply, len(targets))
	var wg sync.WaitGroup
	for i, shard := range targets {
		wg.Add(1)
		go func(i, shard int) {
			defer wg.Done()
			var resp shardQueryResponse
			err := rt.clients[shard].read(ctx, path, httpx.QueryRequest{Vector: v, K: k, QueryPlan: plan}, &resp)
			replies[i] = shardReply{shard: shard, resp: resp, err: err}
		}(i, shard)
	}
	wg.Wait()

	res := &Result{ShardsContacted: len(targets)}
	if wantStats {
		res.Stats = &ResultStats{}
	}
	h := topk.New(k)
	for _, r := range replies {
		if r.err != nil {
			res.FailedShards = append(res.FailedShards, r.shard)
			continue
		}
		res.Candidates += r.resp.Candidates
		rt.metCandidates.Observe(float64(r.resp.Candidates))
		if res.Stats != nil && r.resp.Stats != nil {
			res.Stats.Scanned += r.resp.Stats.Scanned
			res.Stats.Probes += r.resp.Stats.Probes
			res.Stats.TablesProbed += r.resp.Stats.TablesProbed
			res.Stats.ResolvedTables += r.resp.Stats.ResolvedTables
			if r.resp.Stats.TerminatedEarly {
				res.Stats.TerminatedEarly++
			}
			res.Stats.ReportingShards++
		}
		for _, n := range r.resp.Neighbors {
			if h.Accepts(n.Dist) {
				h.Push(n.ID, n.Dist)
			}
		}
	}
	for _, it := range h.Sorted() {
		res.Neighbors = append(res.Neighbors, Neighbor{ID: it.ID, Dist: it.Dist})
	}
	if len(res.FailedShards) > 0 {
		res.Partial = true
		rt.metPartial.Inc()
	}
	return res, nil
}

// Insert routes v to the shard owning its home leaf (round-robin by
// global id under a scatter map), allocating the next cluster-global id.
// It returns the assigned id and the shard that stored the vector.
func (rt *Router) Insert(ctx context.Context, v []float32) (gid, shard int, err error) {
	if dim := rt.m.Dim(); dim != 0 && len(v) != dim {
		return 0, 0, fmt.Errorf("%w: vector has dim %d, shard map wants %d", ErrBadQuery, len(v), dim)
	}
	gid, err = rt.allocGID(ctx)
	if err != nil {
		return 0, 0, err
	}
	shard = rt.m.ShardOf(v)
	if shard < 0 {
		shard = gid % len(rt.clients)
	}
	var resp struct {
		ID int `json:"id"`
	}
	err = rt.clients[shard].primary(ctx, "/insert", httpx.InsertRequest{Vector: v, ID: &gid}, &resp)
	if err != nil {
		return 0, shard, err
	}
	return resp.ID, shard, nil
}

// DeleteResult reports a cluster delete: whether any shard held (and
// tombstoned) the id, and the shards that could not be asked.
type DeleteResult struct {
	Deleted      bool  `json:"deleted"`
	FailedShards []int `json:"failed_shards,omitempty"`
}

// Delete broadcasts the delete to every shard primary — the router does
// not track which shard holds a global id, and exactly one shard will
// answer true.
func (rt *Router) Delete(ctx context.Context, gid int) DeleteResult {
	type reply struct {
		deleted bool
		err     error
	}
	replies := make([]reply, len(rt.clients))
	var wg sync.WaitGroup
	for i := range rt.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp struct {
				Deleted bool `json:"deleted"`
			}
			err := rt.clients[i].primary(ctx, "/delete", map[string]int{"id": gid}, &resp)
			replies[i] = reply{deleted: resp.Deleted, err: err}
		}(i)
	}
	wg.Wait()
	var out DeleteResult
	for i, r := range replies {
		if r.err != nil {
			out.FailedShards = append(out.FailedShards, i)
			continue
		}
		out.Deleted = out.Deleted || r.deleted
	}
	return out
}

// allocGID returns the next cluster-global id, seeding the allocator on
// first use from every shard's reported max_global_id. Allocation fails
// when a shard cannot be asked during seeding — handing out a possibly
// colliding id would corrupt the cluster's id space.
func (rt *Router) allocGID(ctx context.Context) (int, error) {
	rt.gidMu.Lock()
	defer rt.gidMu.Unlock()
	if !rt.gidInit {
		maxGID := -1
		for _, c := range rt.clients {
			var info struct {
				MaxGlobalID int `json:"max_global_id"`
			}
			if err := c.primaryGet(ctx, "/shard/info", &info); err != nil {
				return 0, fmt.Errorf("router: seeding id allocator from shard %d: %w", c.id, err)
			}
			if info.MaxGlobalID > maxGID {
				maxGID = info.MaxGlobalID
			}
		}
		rt.nextGID = maxGID + 1
		rt.gidInit = true
	}
	gid := rt.nextGID
	rt.nextGID++
	return gid, nil
}

// Map returns the routing map (read-only).
func (rt *Router) Map() *ShardMap { return rt.m }

// Spill returns the default per-query leaf probe budget.
func (rt *Router) Spill() int { return rt.spill }
