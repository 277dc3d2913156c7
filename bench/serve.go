package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"syscall"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/metrics"
)

// buildServer compiles the program under test from the checkout's source.
// go build is a no-op when the binary is current.
func buildServer() (string, error) {
	bin := filepath.Join(".build", "bilsh")
	if out, err := exec.Command("go", "build", "-o", bin, "bilsh/cmd/bilsh").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build bilsh/cmd/bilsh: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is a running 'bilsh serve' child.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
	exited chan error
}

var servingLine = regexp.MustCompile(`on (http://[0-9.]+:[0-9]+)`)

// addrWatcher is the child's stdout: it reports the address from the
// "serving ... on http://host:port" line and drops the rest.
type addrWatcher struct {
	mu    sync.Mutex
	buf   []byte
	found chan string
	done  bool
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.done {
		a.buf = append(a.buf, p...)
		if m := servingLine.FindSubmatch(a.buf); m != nil {
			a.found <- string(m[1])
			a.done, a.buf = true, nil
		}
	}
	return len(p), nil
}

// startServer launches 'bilsh serve -mutable' on an ephemeral port and
// returns once /healthz answers.
func startServer(bin, indexPath string, memtable int) (*serverProc, error) {
	s := &serverProc{exited: make(chan error, 1)}
	watch := &addrWatcher{found: make(chan string, 1)}
	s.cmd = exec.Command(bin, "serve", "-index", indexPath, "-mutable", "-addr", "127.0.0.1:0",
		"-memtable", fmt.Sprint(memtable))
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	s.cmd.Stdout = watch
	s.cmd.Stderr = &s.stderr
	// The child must not outlive a harness that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	select {
	case s.base = <-watch.found:
	case err := <-s.exited:
		return nil, fmt.Errorf("bilsh serve exited before listening: %v\n%s", err, s.stderr.String())
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return nil, fmt.Errorf("bilsh serve did not announce an address\n%s", s.stderr.String())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("bilsh serve /healthz never answered: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the child to shut down and waits until it has.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// client drives the server over one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and decodes a 2xx JSON reply into out.
func (c *client) post(path string, body []byte, out interface{}) error {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

type queryReply struct {
	Neighbors []struct {
		ID   int     `json:"id"`
		Dist float64 `json:"dist"`
	} `json:"neighbors"`
	Candidates int `json:"candidates"`
}

// scrape reads the server's metric registry.
func (c *client) scrape() (map[string]metrics.Point, error) {
	resp, err := c.hc.Get(c.base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var doc struct {
		Metrics []metrics.Point `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	out := make(map[string]metrics.Point, len(doc.Metrics))
	for _, p := range doc.Metrics {
		key := p.Name
		if path, ok := p.Labels["path"]; ok {
			key += "{" + path + "}"
		}
		out[key] = p
	}
	return out, nil
}

// op is one step of a serve pass: query i, insert j, self-query j, delete j.
type op struct {
	kind byte
	i    int
}

// opScript spreads the inserts evenly between the queries. Every
// selfQueryEvery-th insert is queried back at once, and each insert is
// deleted a quarter of the batch later, so the overlay holds live and dead
// rows while queries run; the tail of deletes ends the script.
func opScript(queries, inserts int) []op {
	lag := inserts / 4
	var ops []op
	next := 0
	for i := 0; i < queries; i++ {
		ops = append(ops, op{'q', i})
		for next < inserts && next*queries < (i+1)*inserts {
			ops = append(ops, op{'i', next})
			if next%selfQueryEvery == 0 {
				ops = append(ops, op{'s', next})
			}
			if next >= lag {
				ops = append(ops, op{'d', next - lag})
			}
			next++
		}
	}
	for j := inserts - lag; j < inserts; j++ {
		ops = append(ops, op{'d', j})
	}
	return ops
}

// requestBodies are the JSON bodies of a pass, encoded before it starts:
// each query, each insert, and the self-query of every selfQueryEvery-th
// insert.
type requestBodies struct{ query, insert, self [][]byte }

func encodeBodies(in *inputs) (requestBodies, error) {
	b := requestBodies{self: make([][]byte, in.Inserts.N)}
	queryBody := func(v []float32) ([]byte, error) {
		return json.Marshal(map[string]interface{}{"vector": v, "k": neighbors})
	}
	for i := 0; i < in.Queries.N; i++ {
		body, err := queryBody(in.Queries.Row(i))
		if err != nil {
			return b, err
		}
		b.query = append(b.query, body)
	}
	for j := 0; j < in.Inserts.N; j++ {
		body, err := json.Marshal(map[string]interface{}{"vector": in.Inserts.Row(j)})
		if err != nil {
			return b, err
		}
		b.insert = append(b.insert, body)
		if j%selfQueryEvery == 0 {
			if b.self[j], err = queryBody(in.Inserts.Row(j)); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

// query sends one /query under a client span and checks the reply. ok is
// false when the request itself failed, which counts as a failed operation.
func (c *client) query(rec *record, tr *tracer, parent, qi int32, what string, body []byte, idLimit int, dead map[int]bool) (ids []int, dists []float64, candidates int, took time.Duration, ok bool) {
	var reply queryReply
	sp := tr.begin("http.request /query", parent, qi)
	t0 := time.Now()
	err := c.post("/query", body, &reply)
	took = time.Since(t0)
	tr.end(sp)
	if err != nil {
		rec.Attempted++
		rec.fail("%s: %v", what, err)
		return nil, nil, 0, took, false
	}
	for _, nb := range reply.Neighbors {
		ids, dists = append(ids, nb.ID), append(dists, nb.Dist)
	}
	checkNeighbours(rec, what, ids, dists, reply.Candidates, idLimit, dead)
	return ids, dists, reply.Candidates, took, true
}

// servePass plays the op script against the server, then compacts, so the
// next pass starts from the same live set with ids [0, N).
func servePass(c *client, script []op, bodies requestBodies, in *inputs, rec *record, tr *tracer) (passResult, error) {
	n := in.Base.N
	idLimit := n + in.Inserts.N
	qlat := make([]float64, 0, in.Queries.N)
	ilat := make([]float64, 0, in.Inserts.N)
	ids := make([]int, in.Inserts.N)
	dead := map[int]bool{}
	parent := tr.begin("serve.pass", noSpan, noSpan)
	start := time.Now()
	for _, o := range script {
		switch o.kind {
		case 'q':
			_, _, _, took, _ := c.query(rec, tr, parent, int32(o.i), "query", bodies.query[o.i], idLimit, dead)
			qlat = append(qlat, float64(took))
		case 'i':
			var reply struct {
				ID int `json:"id"`
			}
			rec.Attempted++
			sp := tr.begin("http.request /insert", parent, noSpan)
			t0 := time.Now()
			err := c.post("/insert", bodies.insert[o.i], &reply)
			ilat = append(ilat, float64(time.Since(t0)))
			tr.end(sp)
			if err != nil {
				return passResult{}, fmt.Errorf("insert %d: %w", o.i, err)
			}
			ids[o.i] = reply.ID
		case 's':
			rids, rdists, _, _, ok := c.query(rec, tr, parent, noSpan, "self-query", bodies.self[o.i], idLimit, dead)
			if ok {
				checkSelf(rec, "self-query", ids[o.i], rids, rdists)
			}
		case 'd':
			var reply struct {
				Deleted bool `json:"deleted"`
			}
			rec.Attempted++
			sp := tr.begin("http.request /delete", parent, noSpan)
			err := c.post("/delete", []byte(fmt.Sprintf(`{"id":%d}`, ids[o.i])), &reply)
			tr.end(sp)
			if err != nil || !reply.Deleted {
				rec.fail("delete of insert %d (id %d): deleted=%v err=%v", o.i, ids[o.i], reply.Deleted, err)
			}
			dead[ids[o.i]] = true
		}
	}
	churn := time.Since(start)

	var reply struct {
		Live int `json:"live"`
	}
	rec.Attempted++
	sp := tr.begin("http.request /compact", parent, noSpan)
	t0 := time.Now()
	err := c.post("/compact", []byte("{}"), &reply)
	compactS := time.Since(t0).Seconds()
	tr.end(sp)
	tr.end(parent)
	if err != nil {
		return passResult{}, fmt.Errorf("compact: %w", err)
	}
	if reply.Live != n {
		rec.fail("compact left %d live rows, want %d", reply.Live, n)
	}
	p := summarize(qlat, churn)
	sort.Float64s(ilat)
	p.insertP50ms = percentile(ilat, 50) / 1e6
	p.compactS = compactS
	return p, nil
}

// serveSweep queries the whole set once over HTTP on the compacted index.
func serveSweep(c *client, bodies requestBodies, in *inputs, rec *record) quality {
	var q quality
	for qi, body := range bodies.query {
		if _, dists, candidates, _, ok := c.query(rec, nil, noSpan, noSpan, "query", body, in.Base.N, nil); ok {
			q.add(in, qi, dists, candidates)
		}
	}
	return q
}

// setupServer is what an operator pays before the first request: build the
// index, write it to a file, start the server on it, wait for /healthz.
func setupServer(w workload, in *inputs, bin string) (*core.Index, *serverProc, float64, error) {
	start := time.Now()
	ix, _, err := buildIndex(w, in)
	if err != nil {
		return nil, nil, 0, err
	}
	path := filepath.Join(inputsDir(w), "index.bilsh")
	err = writeFile(path, func(bw io.Writer) error {
		_, err := ix.WriteTo(bw)
		return err
	})
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := startServer(bin, path, w.Memtable)
	if err != nil {
		return nil, nil, 0, err
	}
	return ix, srv, time.Since(start).Seconds(), nil
}

// measureServe is the end-to-end run of the HTTP workload.
func measureServe(w workload, in *inputs, rec *record) error {
	bin, err := buildServer()
	if err != nil {
		return err
	}
	bodies, err := encodeBodies(in)
	if err != nil {
		return err
	}
	var (
		ix     *core.Index
		srv    *serverProc
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		if srv != nil {
			srv.stop()
		}
		var s float64
		if ix, srv, s, err = setupServer(w, in, bin); err != nil {
			return err
		}
		setups = append(setups, s)
	}
	defer srv.stop()
	rec.setMedian("setup_s", "s", setups)

	c := newClient(srv.base)
	defer c.close()
	script := opScript(in.Queries.N, in.Inserts.N)
	passes, err := timedPhase(rec, func() (passResult, error) {
		return servePass(c, script, bodies, in, rec, nil)
	})
	if err != nil {
		return fmt.Errorf("%w\nserver stderr: %s", err, srv.stderr.String())
	}
	reportQueryTimings(rec, passes)
	q := serveSweep(c, bodies, in, rec)
	q.report(rec, in.Base.N)
	rec.setMedian("insert_p50_ms", "ms", passValues(passes, func(p passResult) float64 { return p.insertP50ms }))
	rec.setMedian("compact_s", "s", passValues(passes, func(p passResult) float64 { return p.compactS }))

	return reportFootprint(rec, ix, srv.cmd.Process.Pid)
}
