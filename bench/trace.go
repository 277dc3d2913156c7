package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/httpx"
	"bilsh/internal/knn"
	"bilsh/internal/lattice"
	"bilsh/internal/lshfunc"
	"bilsh/internal/lshtable"
	"bilsh/internal/metrics"
	"bilsh/internal/multiprobe"
	"bilsh/internal/rptree"
	"bilsh/internal/server"
	"bilsh/internal/topk"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

const noSpan = int32(-1)

// span is one call the harness made into a layer. Times are ns since the
// tracer started; Query is the query's index in the set, or noSpan.
type span struct {
	Parent     int32
	Query      int32
	Name       string
	Start, End int64
	Stages     *core.StageTimings // core.query spans only
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path shares the traced path's code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent, query int32) int32 {
	if t == nil {
		return noSpan
	}
	t.spans = append(t.spans, span{Parent: parent, Query: query, Name: name})
	id := int32(len(t.spans) - 1)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// spanSummary aggregates the spans of one name; self time is a span's
// duration minus what its children cover.
type spanSummary struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (t *tracer) summary() map[string]spanSummary {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanSummary{}
	for id, s := range t.spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalNs += s.End - s.Start
		sum.SelfNs += s.End - s.Start - children[id]
		out[s.Name] = sum
	}
	return out
}

func (t *tracer) write(path string) error {
	return writeFile(path, func(w io.Writer) error {
		for id, s := range t.spans {
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"query":%d,"name":%q,"start_ns":%d,"end_ns":%d`,
				id, s.Parent, s.Query, s.Name, s.Start, s.End)
			if st := s.Stages; st != nil {
				fmt.Fprintf(w, `,"route_ns":%d,"probe_ns":%d,"scan_ns":%d,"rank_ns":%d`,
					st.Route.Nanoseconds(), st.Probe.Nanoseconds(), st.Scan.Nanoseconds(), st.Rank.Nanoseconds())
			}
			if _, err := fmt.Fprintln(w, "}"); err != nil {
				return err
			}
		}
		return nil
	})
}

// replica holds the harness's own copies of the layers under core.Index,
// built through public constructors at the index's own (d, M, L, W, probes)
// and over its own rows, so each layer can be called and timed alone.
type replica struct {
	probes int
	fams   []*lshfunc.Family   // per group, at that group's tuned W
	tables [][]*lshtable.Table // [group][table]
	lat    lattice.Lattice
	gen    func(s *multiprobe.Scratch, y []float64, count int)
	quant  *vec.QuantizedMatrix

	// per-query scratch
	proj  [][]float64
	mp    []multiprobe.Scratch
	code  []int32
	key   []byte
	ids   []int32
	dists []float64
	heap  *topk.Heap
	items []topk.Item

	lookups, entries, candidates int
}

func buildReplica(ix *core.Index, in *inputs) (*replica, error) {
	o := ix.Options()
	r := &replica{probes: 1, heap: topk.New(neighbors), quant: vec.QuantizeSQ8(in.Base)}
	if o.ProbeMode == core.ProbeMulti {
		r.probes = o.Probes
	}
	switch o.Lattice {
	case core.LatticeZM:
		lat := lattice.NewZM(o.Params.M)
		r.lat = lat
		r.gen = func(s *multiprobe.Scratch, y []float64, n int) { multiprobe.ZMProbesInto(s, lat, y, n) }
	case core.LatticeE8:
		lat := lattice.NewE8(o.Params.M)
		r.lat = lat
		r.gen = func(s *multiprobe.Scratch, y []float64, n int) { multiprobe.E8ProbesInto(s, lat, y, n) }
	default:
		return nil, fmt.Errorf("replica: no workload uses lattice %v", o.Lattice)
	}
	L := o.Params.L
	r.proj = make([][]float64, L)
	for t := range r.proj {
		r.proj[t] = make([]float64, o.Params.M)
	}
	r.mp = make([]multiprobe.Scratch, L)
	rng := xrand.New(indexSeed + 1)
	proj := make([]float64, o.Params.M)
	for g := 0; g < ix.NumGroups(); g++ {
		fam, err := lshfunc.NewFamily(ix.Dim(), lshfunc.Params{M: o.Params.M, L: L, W: ix.GroupW(g)}, rng.Split(int64(g)))
		if err != nil {
			return nil, err
		}
		members := ix.GroupMembers(g)
		tables := make([]*lshtable.Table, L)
		for t := 0; t < L; t++ {
			codes := make([]string, len(members))
			for i, id := range members {
				fam.Project(t, ix.Vector(id), proj)
				codes[i] = lattice.Key(r.lat.Decode(proj))
			}
			if tables[t], err = lshtable.Build(codes, members); err != nil {
				return nil, err
			}
		}
		r.fams, r.tables = append(r.fams, fam), append(r.tables, tables)
	}
	return r, nil
}

// replay runs one query through each layer in turn, a span around each.
func (r *replica) replay(tr *tracer, parent int32, qi int, q []float32, ix *core.Index, base *vec.Matrix) {
	query := int32(qi)

	sp := tr.begin("rptree.route", parent, query)
	g := ix.GroupOf(q)
	tr.end(sp)

	fam := r.fams[g]
	sp = tr.begin("lshfunc.project", parent, query)
	for t := range r.proj {
		fam.Project(t, q, r.proj[t])
	}
	tr.end(sp)

	sp = tr.begin("lattice.decode", parent, query)
	for t := range r.proj {
		r.code = r.lat.DecodeInto(r.code, r.proj[t])
		r.key = lattice.AppendKey(r.key[:0], r.code)
	}
	tr.end(sp)

	sp = tr.begin("multiprobe.gen", parent, query)
	for t := range r.proj {
		r.gen(&r.mp[t], r.proj[t], r.probes)
	}
	tr.end(sp)

	sp = tr.begin("lshtable.lookup", parent, query)
	for t := range r.proj {
		for p := 0; p < r.mp[t].Probes(); p++ {
			r.key = lattice.AppendKey(r.key[:0], r.mp[t].Probe(p))
			r.entries += len(r.tables[g][t].BucketBytes(r.key))
			r.lookups++
		}
	}
	tr.end(sp)

	sp = tr.begin("core.candidate_list", parent, query)
	cands, _ := ix.CandidateList(q)
	tr.end(sp)
	r.ids = r.ids[:0]
	for _, id := range cands {
		r.ids = append(r.ids, int32(id))
	}
	if cap(r.dists) < len(cands) {
		r.dists = make([]float64, len(cands))
	}
	r.dists = r.dists[:len(cands)]
	r.candidates += len(cands)

	sp = tr.begin("vec.scan", parent, query)
	vec.SqDistToRows(r.dists, base.Data, base.D, r.ids, q)
	tr.end(sp)

	sp = tr.begin("topk.rank", parent, query)
	r.heap.Reset()
	for i, d := range r.dists {
		if r.heap.Accepts(d) {
			r.heap.Push(cands[i], d)
		}
	}
	r.items = r.heap.AppendSorted(r.items[:0])
	tr.end(sp)

	sp = tr.begin("vec.sq8_scan", parent, query)
	vec.SqDistToRowsSQ8(r.dists, r.quant, r.ids, q)
	tr.end(sp)
}

// tracedSweep queries the whole set once with a span around the real
// Index.Query call and, under a sibling "replay" span, around each layer.
func tracedSweep(ix *core.Index, in *inputs, r *replica, tr *tracer, rec *record) {
	root := tr.begin("sweep", noSpan, noSpan)
	for qi := 0; qi < in.Queries.N; qi++ {
		q := in.Queries.Row(qi)
		sp := tr.begin("core.query", root, int32(qi))
		res, st := ix.Query(q, neighbors)
		tr.end(sp)
		tr.spans[sp].Stages = &st.Timings
		checkNeighbours(rec, "traced query", res.IDs, res.Dists, st.Candidates, in.Base.N, nil)
		rp := tr.begin("replay", root, int32(qi))
		r.replay(tr, rp, qi, q, ix, in.Base)
		tr.end(rp)
	}
	tr.end(root)
}

// clockReadNs is the measured cost of one time.Now, the meter the probe
// loop reads 4L+6 times per query.
func clockReadNs() float64 {
	const reads = 1 << 20
	var last time.Time
	start := time.Now()
	for i := 0; i < reads; i++ {
		last = time.Now()
	}
	return float64(last.Sub(start)) / reads
}

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// tracedRun measures the per-layer metrics. Every workload goes through the
// same sections, so every per-layer metric exists on every workload; only
// the index configuration differs.
func tracedRun(w workload, in *inputs, passDur time.Duration, rec *record) error {
	n, nq := in.Base.N, in.Queries.N
	rec.set("harness.gen_s", "s", in.Meta.GenS)
	rec.set("harness.truth_s", "s", in.Meta.TruthS)

	// Build split: the whole index, then level 1 alone as Build calls it.
	ix, buildS, err := buildIndex(w, in)
	if err != nil {
		return err
	}
	rec.set("core.build_s", "s", buildS)
	o := ix.Options()
	t0 := time.Now()
	rptree.Build(in.Base, rptree.Options{Rule: o.RPRule, Leaves: o.Groups, MinLeafSize: o.MinGroupSize}, xrand.New(indexSeed).Split(1))
	rec.set("rptree.build_s", "s", since(t0))

	// Counts, exact repeat; doubles as warm-up.
	q, c := inprocSweep(ix, in, rec)
	q.checkFloor(rec)
	rec.set("core.probes_per_query", "count", float64(c.probes)/float64(c.n))
	rec.set("core.scanned_per_query", "count", float64(c.scanned)/float64(c.n))
	rec.set("core.candidates_per_query", "count", float64(c.candidates)/float64(c.n))
	rec.set("core.dedup_ratio", "ratio", float64(c.candidates)/float64(c.scanned))

	rep, err := buildReplica(ix, in)
	if err != nil {
		return err
	}

	// Untraced pass, traced sweep, untraced pass.
	lat := make([]float64, 0, 1<<17)
	cursor := 0
	before := canary()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	a := inprocPass(ix, in, &cursor, passDur, lat, rec)
	runtime.ReadMemStats(&m1)
	tr := newTracer()
	tracedSweep(ix, in, rep, tr, rec)
	runtime.GC()
	cursor = 0
	b := inprocPass(ix, in, &cursor, passDur, lat, rec)
	after := canary()
	rec.Passes = 2
	rec.Noisy = drifted(before, after)

	queries := float64(a.queries + b.queries)
	meanNs := (a.meanNs*float64(a.queries) + b.meanNs*float64(b.queries)) / queries
	us := func(d time.Duration) float64 { return float64(d) / queries / 1e3 }
	st := core.StageTimings{Route: a.stages.Route + b.stages.Route, Probe: a.stages.Probe + b.stages.Probe,
		Scan: a.stages.Scan + b.stages.Scan, Rank: a.stages.Rank + b.stages.Rank}
	rec.set("core.route_us", "us", us(st.Route))
	rec.set("core.probe_us", "us", us(st.Probe))
	rec.set("core.scan_us", "us", us(st.Scan))
	rec.set("core.rank_us", "us", us(st.Rank))
	rec.set("core.stage_coverage", "ratio", us(st.Route+st.Probe+st.Scan+st.Rank)*1e3/meanNs)
	rec.set("core.meter_overhead_pct", "%", clockReadNs()*float64(4*o.Params.L+6)/meanNs*100)

	sum := tr.summary()
	perQuery := func(name string) float64 { return float64(sum[name].TotalNs) / float64(nq) }
	rec.set("rptree.route_ns", "ns", perQuery("rptree.route"))
	rec.set("lshfunc.project_ns", "ns", perQuery("lshfunc.project"))
	rec.set("lattice.decode_ns", "ns", perQuery("lattice.decode"))
	rec.set("multiprobe.gen_ns", "ns", perQuery("multiprobe.gen"))
	rec.set("lshtable.lookup_ns", "ns", perQuery("lshtable.lookup"))
	rec.set("lshtable.lookups_per_query", "count", float64(rep.lookups)/float64(nq))
	cands := float64(rep.candidates)
	rec.set("vec.scan_ns_per_cand", "ns", float64(sum["vec.scan"].TotalNs)/cands)
	rec.set("vec.scan_gbps", "GB/s", cands*float64(4*in.Base.D)/float64(sum["vec.scan"].TotalNs))
	rec.set("vec.sq8_scan_ns_per_cand", "ns", float64(sum["vec.sq8_scan"].TotalNs)/cands)
	rec.set("topk.push_ns_per_cand", "ns", float64(sum["topk.rank"].TotalNs)/cands)
	rec.set("core.candidate_list_us", "us", perQuery("core.candidate_list")/1e3)
	rec.set("trace.overhead_pct", "%", (perQuery("core.query")/meanNs-1)*100)

	rec.set("go.allocs_per_query", "count", float64(m1.Mallocs-m0.Mallocs)/float64(a.queries))
	rec.set("go.bytes_per_query", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(a.queries))
	rec.set("go.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	rec.set("harness.canary_ns_before", "ns", before)
	rec.set("harness.canary_ns_after", "ns", after)

	// The paper's baseline: a linear scan over the same rows.
	const exactQueries = 50
	t0 = time.Now()
	for qi := 0; qi < exactQueries && qi < nq; qi++ {
		res := ix.ExactKNN(in.Queries.Row(qi), neighbors)
		checkNeighbours(rec, "exact query", res.IDs, res.Dists, n, n, nil)
	}
	exactMs := since(t0) * 1e3 / float64(min(exactQueries, nq))
	rec.set("core.exact_knn_ms", "ms", exactMs)
	rec.set("core.speedup_vs_exact", "ratio", exactMs*1e6/meanNs)

	t0 = time.Now()
	results, stats := ix.QueryBatchParallel(in.Queries, neighbors, runtime.NumCPU())
	rec.set("core.batch_parallel_qps", "1/s", float64(nq)/since(t0))
	for i, res := range results {
		checkNeighbours(rec, "batch query", res.IDs, res.Dists, stats[i].Candidates, n, nil)
	}

	indexPath, err := storageSection(w, in, ix, rec)
	if err != nil {
		return err
	}
	if err := serveSection(w, in, ix, indexPath, tr, rec); err != nil {
		return err
	}

	// Direct library writes on the same data.
	ch, err := inprocChurn(ix, in, rec)
	if err != nil {
		return err
	}
	rec.set("core.insert_us", "us", ch.insertMeanUs)
	rec.set("core.delete_us", "us", ch.deleteMeanUs)
	rec.set("core.compact_s", "s", ch.compactS)

	rec.Spans = tr.summary()
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join("out", "trace-"+w.Name+".jsonl"))
}

// storageSection times the other uses of the same layers: the stream
// format, the paged disk format, and queries off the mapping. It returns
// the path of the stream-format file it wrote.
func storageSection(w workload, in *inputs, ix *core.Index, rec *record) (string, error) {
	path := filepath.Join(inputsDir(w), "index.bilsh")
	t0 := time.Now()
	err := writeFile(path, func(bw io.Writer) error {
		_, err := ix.WriteTo(bw)
		return err
	})
	if err != nil {
		return "", err
	}
	rec.set("core.write_to_s", "s", since(t0))
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	rec.set("core.index_file_bytes", "B", float64(fi.Size()))
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	t0 = time.Now()
	_, err = core.ReadIndex(bufio.NewReaderSize(f, 1<<20))
	f.Close()
	if err != nil {
		return "", fmt.Errorf("ReadIndex: %w", err)
	}
	rec.set("core.read_index_s", "s", since(t0))

	disk := filepath.Join(inputsDir(w), "index.disk")
	t0 = time.Now()
	if err := ix.SaveDisk(disk); err != nil {
		return "", fmt.Errorf("SaveDisk: %w", err)
	}
	rec.set("core.save_disk_s", "s", since(t0))
	t0 = time.Now()
	mapped, err := core.OpenDisk(disk)
	if err != nil {
		return "", fmt.Errorf("OpenDisk: %w", err)
	}
	defer mapped.Close()
	rec.set("core.open_disk_s", "s", since(t0))

	// Mapped against heap on identical queries, results required identical.
	sweep := func(ix *core.Index) (float64, []knn.Result) {
		res := make([]knn.Result, min(500, in.Queries.N))
		t0 := time.Now()
		for qi := range res {
			res[qi], _ = ix.Query(in.Queries.Row(qi), neighbors)
		}
		return float64(len(res)) / since(t0), res
	}
	sweep(mapped.Index) // fault the pages in
	var mappedQPS, heapQPS float64
	for round := 0; round < 2; round++ { // alternate, so machine drift hits both sides
		m, mres := sweep(mapped.Index)
		h, hres := sweep(ix)
		mappedQPS, heapQPS = mappedQPS+m, heapQPS+h
		rec.Attempted++
		if !reflect.DeepEqual(mres, hres) {
			rec.fail("mapped index results differ from heap index results")
		}
	}
	rec.set("mmap.query_qps_ratio", "ratio", mappedQPS/heapQPS)
	return path, nil
}

// serveSection puts JSON, HTTP and a socket around the same index: one pass
// of the op script against a 'bilsh serve' child, the server's own metrics
// scraped on either side, then the handler and the decoder alone.
func serveSection(w workload, in *inputs, ix *core.Index, indexPath string, tr *tracer, rec *record) error {
	bin, err := buildServer()
	if err != nil {
		return err
	}
	bodies, err := encodeBodies(in)
	if err != nil {
		return err
	}
	srv, err := startServer(bin, indexPath, w.Memtable)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.close()
	m0, err := c.scrape()
	if err != nil {
		return err
	}
	// A quarter of the queries is enough for means; the inserts stay whole
	// so the memtable still seals.
	if _, err := servePass(c, opScript(in.Queries.N/4, in.Inserts.N), bodies, in, rec, tr); err != nil {
		return fmt.Errorf("%w\nserver stderr: %s", err, srv.stderr.String())
	}
	m1, err := c.scrape()
	if err != nil {
		return err
	}
	httpS, httpN := histDelta(m0, m1, "bilsh_http_request_seconds{/query}")
	coreS, coreN := histDelta(m0, m1, "bilsh_core_query_seconds")
	client := tr.summary()["http.request /query"]
	if httpN == 0 || httpN != coreN || int(httpN) != client.Count {
		return fmt.Errorf("server counted %v /query requests and %v core queries, client sent %d", httpN, coreN, client.Count)
	}
	clientUs := float64(client.TotalNs) / float64(client.Count) / 1e3
	rec.set("server.http_overhead_us", "us", (httpS/httpN-coreS/coreN)*1e6)
	rec.set("net.roundtrip_us", "us", clientUs-httpS/httpN*1e6)
	rec.set("core.memtable_seals", "count", value(m1, "bilsh_core_memtable_seals_total")-value(m0, "bilsh_core_memtable_seals_total"))

	// The same request through the handler with no socket, and the body
	// decoder alone.
	h := server.New(ix, false).Handler()
	reps := min(200, len(bodies.query))
	var handlerNs, decodeNs time.Duration
	for i := 0; i < reps; i++ {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(bodies.query[i]))
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		handlerNs += time.Since(t0)
		rec.Attempted++
		if rr.Code != http.StatusOK {
			rec.fail("handler answered %d to query %d", rr.Code, i)
		}

		req = httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(bodies.query[i]))
		var dst struct {
			Vector []float32 `json:"vector"`
			K      int       `json:"k"`
		}
		t0 = time.Now()
		ok := httpx.DecodeBody(httptest.NewRecorder(), req, 1<<24, &dst)
		decodeNs += time.Since(t0)
		rec.Attempted++
		if !ok || len(dst.Vector) != in.Base.D {
			rec.fail("DecodeBody rejected the body of query %d", i)
		}
	}
	rec.set("server.handler_us", "us", float64(handlerNs)/float64(reps)/1e3)
	rec.set("httpx.decode_us", "us", float64(decodeNs)/float64(reps)/1e3)
	return nil
}

func histDelta(m0, m1 map[string]metrics.Point, key string) (sum, count float64) {
	a, b := m0[key], m1[key]
	if b.Sum == nil || b.Count == nil {
		return 0, 0
	}
	sum, count = *b.Sum, float64(*b.Count)
	if a.Sum != nil && a.Count != nil {
		sum, count = sum-*a.Sum, count-float64(*a.Count)
	}
	return sum, count
}

func value(m map[string]metrics.Point, key string) float64 {
	if p := m[key]; p.Value != nil {
		return *p.Value
	}
	return 0
}
