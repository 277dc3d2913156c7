package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"bilsh/internal/metrics"
)

// shardPlanStats mirrors the shard server's per-query stats block
// (answered under ?stats=1).
type shardPlanStats struct {
	Scanned         int  `json:"scanned"`
	Probes          int  `json:"probes"`
	TablesProbed    int  `json:"tables_probed"`
	ResolvedTables  int  `json:"resolved_tables"`
	ResolvedProbes  int  `json:"resolved_probes"`
	TerminatedEarly bool `json:"terminated_early"`
}

// shardQueryResponse mirrors the shard server's /query reply; the request
// is httpx.QueryRequest, whose embedded plan forwards the merged (router
// default + per-request) execution plan verbatim. Each shard re-resolves
// TargetRecall against its own built parameters.
type shardQueryResponse struct {
	Neighbors  []Neighbor      `json:"neighbors"`
	Candidates int             `json:"candidates"`
	Group      int             `json:"group"`
	Stats      *shardPlanStats `json:"stats"`
}

// addrState is the health view of one address. down flips on transport
// failures (passively) and on failed health probes; the prober flips it
// back when the address answers again. misconfigured means the address
// answered /shard/info with the wrong shard id — it is never used until
// the operator fixes the address list.
type addrState struct {
	down          atomic.Bool
	misconfigured atomic.Bool
	lastErr       atomic.Pointer[string]
}

// shardClient issues requests to one shard's address set with
// per-attempt timeouts, replica rotation, retries and hedging.
type shardClient struct {
	id    int
	addrs []string
	state []*addrState
	hc    *http.Client

	timeout time.Duration
	hedge   time.Duration
	retries int

	rr atomic.Uint64 // read rotation cursor across replicas

	metLatency *metrics.Histogram
	metErrs    *metrics.Counter
	metHedges  *metrics.Counter
}

func newShardClient(id int, addrs []string, hc *http.Client,
	timeout, hedge time.Duration, retries int,
	reg *metrics.Registry, metHedges *metrics.Counter) *shardClient {
	c := &shardClient{
		id:      id,
		addrs:   append([]string(nil), addrs...),
		hc:      hc,
		timeout: timeout,
		hedge:   hedge,
		retries: retries,
		metLatency: reg.Histogram("bilsh_router_shard_request_seconds",
			"Shard request latency (successful attempts), by shard.",
			metrics.DefLatencyBuckets, metrics.L("shard", fmt.Sprint(id))),
		metErrs: reg.Counter("bilsh_router_shard_errors_total",
			"Failed shard request attempts, by shard.", metrics.L("shard", fmt.Sprint(id))),
		metHedges: metHedges,
	}
	c.state = make([]*addrState, len(addrs))
	for i := range c.state {
		c.state[i] = &addrState{}
	}
	return c
}

// readOrder returns the addresses to try for a read, rotated by the
// round-robin cursor and with down/misconfigured addresses pushed out;
// when nothing looks healthy every non-misconfigured address is fair
// game (the mark may be stale).
func (c *shardClient) readOrder() []string {
	start := int(c.rr.Add(1)) % len(c.addrs)
	healthy := make([]string, 0, len(c.addrs))
	fallback := make([]string, 0, len(c.addrs))
	for i := 0; i < len(c.addrs); i++ {
		j := (start + i) % len(c.addrs)
		st := c.state[j]
		if st.misconfigured.Load() {
			continue
		}
		if st.down.Load() {
			fallback = append(fallback, c.addrs[j])
			continue
		}
		healthy = append(healthy, c.addrs[j])
	}
	return append(healthy, fallback...)
}

// read issues a hedged, retried POST against the shard's replicas: the
// first attempt goes to the next address in rotation; after the hedge
// delay of silence a duplicate attempt races it on the following
// address; failed attempts move on immediately. The first success wins.
func (c *shardClient) read(ctx context.Context, path string, body, out interface{}) error {
	addrs := c.readOrder()
	if len(addrs) == 0 {
		return fmt.Errorf("router: shard %d has no usable addresses (all misconfigured)", c.id)
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	attempts := 1 + c.retries
	if attempts > len(addrs) {
		attempts = len(addrs)
	}

	// One goroutine per launched attempt reports here; the loop below is
	// the only writer of `next`, so launches never race.
	type attemptResult struct {
		body []byte
		err  error
	}
	resc := make(chan attemptResult, attempts)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in the losers once a winner returns

	launch := func(addr string) {
		go func() {
			b, err := c.try(ctx, addr, path, payload)
			resc <- attemptResult{body: b, err: err}
		}()
	}
	next := 0
	launch(addrs[next])
	next++

	var hedgeC <-chan time.Time
	if c.hedge > 0 && next < attempts {
		t := time.NewTimer(c.hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	var firstErr error
	for {
		select {
		case r := <-resc:
			pending--
			if r.err == nil {
				return json.Unmarshal(r.body, out)
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if next < attempts {
				launch(addrs[next])
				next++
				pending++
				continue
			}
			if pending == 0 {
				return firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if next < attempts {
				c.metHedges.Inc()
				launch(addrs[next])
				next++
				pending++
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// primary issues one POST to the shard's primary — mutations are not
// hedged or retried, so a side effect happens at most once per request.
func (c *shardClient) primary(ctx context.Context, path string, body, out interface{}) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	b, err := c.try(ctx, c.addrs[0], path, payload)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// primaryGet issues one GET to the shard's primary.
func (c *shardClient) primaryGet(ctx context.Context, path string, out interface{}) error {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.addrs[0]+path, nil)
	if err != nil {
		return err
	}
	b, err := c.roundTrip(req, 0)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// try runs one POST attempt against addr with the per-attempt timeout,
// recording latency and marking the address down on transport failure.
func (c *shardClient) try(ctx context.Context, addr, path string, payload []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.roundTrip(req, c.addrIndex(addr))
}

func (c *shardClient) addrIndex(addr string) int {
	for i, a := range c.addrs {
		if a == addr {
			return i
		}
	}
	return 0
}

// roundTrip executes req, maps non-2xx statuses to errors carrying the
// shard's structured {"error": ...} body, and maintains passive health.
func (c *shardClient) roundTrip(req *http.Request, addrIdx int) ([]byte, error) {
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport failure: the process may be gone; skip this address
		// until the prober sees it again.
		c.markDown(addrIdx, err)
		c.metErrs.Inc()
		return nil, fmt.Errorf("router: shard %d %s: %w", c.id, req.URL.Path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		c.metErrs.Inc()
		return nil, fmt.Errorf("router: shard %d %s: reading response: %w", c.id, req.URL.Path, err)
	}
	if resp.StatusCode/100 != 2 {
		// The shard answered — alive, just unhappy. Surface its
		// structured error.
		c.metErrs.Inc()
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("router: shard %d %s: %d: %s", c.id, req.URL.Path, resp.StatusCode, e.Error)
		}
		return nil, fmt.Errorf("router: shard %d %s: status %d", c.id, req.URL.Path, resp.StatusCode)
	}
	c.markUp(addrIdx)
	c.metLatency.Observe(time.Since(start).Seconds())
	return body, nil
}

func (c *shardClient) markDown(addrIdx int, err error) {
	st := c.state[addrIdx]
	st.down.Store(true)
	msg := err.Error()
	st.lastErr.Store(&msg)
}

func (c *shardClient) markUp(addrIdx int) {
	st := c.state[addrIdx]
	st.down.Store(false)
	st.lastErr.Store(nil)
}
