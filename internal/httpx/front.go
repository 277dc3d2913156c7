package httpx

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bilsh/internal/metrics"
	"bilsh/internal/tuner"
)

// Front is the part of an HTTP tier that does not depend on what the tier
// serves: the route table with its 405 rule, the metrics middleware,
// GET /healthz and GET /metrics, the published default plan with the
// adaptive loop that republishes it, and the graceful Serve. The
// single-node server and the router each keep one and register only their
// own endpoints through Handler. Set the exported fields before Handler.
type Front struct {
	// Registry receives the middleware metrics and is what GET /metrics
	// serves.
	Registry *metrics.Registry
	// Metrics mounts GET /metrics; Pprof mounts the net/http/pprof
	// handlers under /debug/pprof/.
	Metrics, Pprof bool
	// DrainTimeout bounds how long Serve waits for in-flight requests on
	// shutdown.
	DrainTimeout time.Duration

	// start anchors the uptime gauge.
	start time.Time
	// plan is the default plan applied to requests without overrides of
	// their own; nil means none. The adaptive loop republishes it while
	// queries read it, hence the atomic pointer.
	plan atomic.Pointer[QueryPlan]
}

// NewFront returns a front end recording into reg, with /metrics on,
// pprof off and a 30 s drain.
func NewFront(reg *metrics.Registry) *Front {
	return &Front{Registry: reg, Metrics: true, DrainTimeout: 30 * time.Second, start: time.Now()}
}

// Uptime is the time since the front end was made.
func (f *Front) Uptime() time.Duration { return time.Since(f.start) }

// Handler returns the mux serving routes (path -> method -> handler) plus
// GET /healthz and, with Metrics, GET /metrics. Routing is an explicit
// table so that a known path with the wrong method gets a JSON 405 with
// an Allow header (methodDispatch) rather than a 404, and so the
// middleware sees a bounded set of path labels.
func (f *Front) Handler(routes map[string]map[string]http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mount := func(path string, methods map[string]http.HandlerFunc) {
		mux.Handle(path, f.instrument(path, methodDispatch(methods)))
	}
	mount("/healthz", map[string]http.HandlerFunc{http.MethodGet: handleHealthz})
	if f.Metrics {
		mount("/metrics", map[string]http.HandlerFunc{http.MethodGet: f.handleMetrics})
	}
	for path, methods := range routes {
		mount(path, methods)
	}
	if f.Pprof {
		// Mounted on this mux, not the DefaultServeMux, under one shared
		// path label so profile names cannot grow the metric cardinality.
		for path, h := range map[string]http.HandlerFunc{
			"/debug/pprof/":        pprof.Index,
			"/debug/pprof/cmdline": pprof.Cmdline,
			"/debug/pprof/profile": pprof.Profile,
			"/debug/pprof/symbol":  pprof.Symbol,
			"/debug/pprof/trace":   pprof.Trace,
		} {
			mux.Handle(path, f.instrument("/debug/pprof/", h))
		}
	}
	return mux
}

// statusRecorder captures the response status for the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records code before delegating.
func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps one endpoint with the middleware metrics: request
// count by (path, code), the in-flight gauge, latency by path and error
// count by path.
func (f *Front) instrument(path string, next http.Handler) http.Handler {
	inflight := f.Registry.Gauge("bilsh_http_in_flight_requests", "Requests currently being served.")
	latency := f.Registry.Histogram("bilsh_http_request_seconds",
		"HTTP request latency, by path.", metrics.DefLatencyBuckets, metrics.L("path", path))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Inc()
		defer inflight.Dec()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		latency.Observe(time.Since(start).Seconds())
		f.Registry.Counter("bilsh_http_requests_total", "HTTP requests served, by path and status code.",
			metrics.L("path", path), metrics.L("code", strconv.Itoa(rec.status))).Inc()
		if rec.status >= 400 {
			f.Registry.Counter("bilsh_http_errors_total", "HTTP responses with status >= 400, by path.",
				metrics.L("path", path)).Inc()
		}
	})
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the registry, refreshing the uptime gauge first.
// The default is the Prometheus text exposition format; `?format=json` or
// an Accept header preferring application/json selects the JSON document.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	f.Registry.Gauge("bilsh_process_uptime_seconds", "Seconds since the server was constructed.").
		Set(int64(f.Uptime().Seconds()))
	// A write error means the headers are gone; nothing is left to do.
	if r.URL.Query().Get("format") == "json" || strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		_ = f.Registry.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = f.Registry.WritePrometheus(w)
}

// Serve runs h on ln until ctx is cancelled, then shuts down gracefully:
// the listener closes at once (no new connections) and in-flight requests
// get up to DrainTimeout to finish. Request contexts carry ctx's values
// but not its cancellation: they end when the drain does, so a handler
// waiting on an upstream (the router's shard calls) finishes its request
// during the drain and lets go when the timeout expires. Serve returns
// nil after a clean drain, context.DeadlineExceeded if requests were
// still running at the timeout, or the listener's error if it failed
// first.
//
// The caller owns ctx; wiring it to SIGINT/SIGTERM with
// signal.NotifyContext gives the conventional kill-once-drain behaviour.
func (f *Front) Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := NewServer(h)
	reqCtx, endRequests := context.WithCancel(context.WithoutCancel(ctx))
	defer endRequests()
	srv.BaseContext = func(net.Listener) context.Context { return reqCtx }

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), f.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	// http.Server.Serve returns ErrServerClosed as soon as Shutdown
	// starts; the drain result is the answer.
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// DefaultPlan returns the current default plan (zero when none was set).
func (f *Front) DefaultPlan() QueryPlan {
	if p := f.plan.Load(); p != nil {
		return *p
	}
	return QueryPlan{}
}

// SetDefaultPlan atomically replaces the default plan. Safe to call while
// queries are in flight.
func (f *Front) SetDefaultPlan(p QueryPlan) { f.plan.Store(&p) }

// PlanFor merges one request's plan over the default plan: every field
// the request sets wins, anything it leaves zero falls through to the
// default, and what is still zero after that resolves to the index's
// built budgets inside core (on the router: inside each shard).
func (f *Front) PlanFor(p QueryPlan) QueryPlan {
	d := f.DefaultPlan()
	for _, fl := range []struct{ req, def *int }{
		{&p.Probes, &d.Probes},
		{&p.Tables, &d.Tables},
		{&p.HierMinCandidates, &d.HierMinCandidates},
		{&p.RerankFactor, &d.RerankFactor},
		{&p.StableProbes, &d.StableProbes},
		{&p.MaxCandidates, &d.MaxCandidates},
	} {
		if *fl.req > 0 {
			*fl.def = *fl.req
		}
	}
	if p.TargetRecall > 0 {
		d.TargetRecall = p.TargetRecall
	}
	return d
}

// AdaptiveConfig configures the online re-tuning loop (docs/adaptive.md).
type AdaptiveConfig struct {
	// TargetRecall is the recall SLO the re-tuned default plan carries
	// (default 0.9).
	TargetRecall float64
	// Interval is the re-tune period (default 10s).
	Interval time.Duration
	// MinSamples gates each re-tune on a minimum number of observed
	// shortlist sizes (default 64).
	MinSamples int64
	// Headroom multiplies the observed mean shortlist size into the
	// MaxCandidates early-termination cap (default 3).
	Headroom float64
	// Log, when set, logs each applied budget.
	Log *log.Logger
}

// StartAdaptive launches the online tuning loop: a tuner.Online re-tunes
// the default plan every Interval until ctx is done, publishing through
// SetDefaultPlan so in-flight queries are never disturbed and per-request
// overrides always win. in carries the tier's signal: the shortlist-size
// histogram to watch (Candidates) and, where one index is behind the
// tier, its BuiltRecall and Tables, which turn the recall target into a
// table budget; left zero, the plan carries the recall target alone and
// each shard resolves it. Returns immediately.
func (f *Front) StartAdaptive(ctx context.Context, cfg AdaptiveConfig, in tuner.OnlineConfig) {
	if cfg.TargetRecall <= 0 || cfg.TargetRecall >= 1 {
		cfg.TargetRecall = 0.9
	}
	in.TargetRecall, in.MinSamples, in.Headroom, in.Interval = cfg.TargetRecall, cfg.MinSamples, cfg.Headroom, cfg.Interval
	on := tuner.NewOnline(in)
	go on.Run(ctx, func(b tuner.Budget) {
		f.SetDefaultPlan(QueryPlan{TargetRecall: b.TargetRecall, Tables: b.Tables, MaxCandidates: b.MaxCandidates})
		if cfg.Log != nil {
			cfg.Log.Printf("adaptive: re-tuned default plan: target_recall=%.3f tables=%d max_candidates=%d (mean candidates %.1f over %d samples)",
				b.TargetRecall, b.Tables, b.MaxCandidates, b.MeanCandidates, b.Samples)
		}
	})
}
