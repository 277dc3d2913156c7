package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bilsh/internal/lattice"
	"bilsh/internal/multiprobe"
)

// TestPlanValidate is the table-driven contract of Plan.Validate: every
// field range, with the message naming the offending field.
func TestPlanValidate(t *testing.T) {
	big := planLimit + 1
	cases := []struct {
		name string
		p    Plan
		want string // "" = valid
	}{
		{"zero", Plan{}, ""},
		{"k only", Plan{K: 10}, ""},
		{"all fields sane", Plan{K: 5, TargetRecall: 0.9, Probes: 8, Tables: 4, HierMinCandidates: 20, RerankFactor: 6, StableProbes: 16, MaxCandidates: 1000}, ""},
		{"negative k", Plan{K: -1}, "K"},
		{"huge k", Plan{K: big}, "K"},
		{"recall one", Plan{TargetRecall: 1}, "TargetRecall"},
		{"recall above one", Plan{TargetRecall: 1.5}, "TargetRecall"},
		{"recall negative", Plan{TargetRecall: -0.1}, "TargetRecall"},
		{"negative probes", Plan{Probes: -2}, "Probes"},
		{"huge probes", Plan{Probes: big}, "Probes"},
		{"negative tables", Plan{Tables: -1}, "Tables"},
		{"huge tables", Plan{Tables: big}, "Tables"},
		{"negative hier min", Plan{HierMinCandidates: -1}, "HierMinCandidates"},
		{"huge hier min", Plan{HierMinCandidates: big}, "HierMinCandidates"},
		{"negative rerank", Plan{RerankFactor: -1}, "RerankFactor"},
		{"huge rerank", Plan{RerankFactor: big}, "RerankFactor"},
		{"negative stable probes", Plan{StableProbes: -1}, "StableProbes"},
		{"huge stable probes", Plan{StableProbes: big}, "StableProbes"},
		{"negative max candidates", Plan{MaxCandidates: -1}, "MaxCandidates"},
		{"huge max candidates", Plan{MaxCandidates: big}, "MaxCandidates"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate(%+v) = %v, want nil", tc.p, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate(%+v) = nil, want error mentioning %q", tc.p, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(%+v) = %q, want mention of %q", tc.p, err, tc.want)
			}
		})
	}
}

func TestPlanIsDefault(t *testing.T) {
	cases := []struct {
		p    Plan
		want bool
	}{
		{Plan{}, true},
		{Plan{K: 10}, true},
		{Plan{K: 10, TargetRecall: 0.9}, false},
		{Plan{Probes: 4}, false},
		{Plan{Tables: 2}, false},
		{Plan{HierMinCandidates: 5}, false},
		{Plan{RerankFactor: 8}, false},
		{Plan{StableProbes: 3}, false},
		{Plan{MaxCandidates: 100}, false},
	}
	for _, tc := range cases {
		if got := tc.p.IsDefault(); got != tc.want {
			t.Fatalf("IsDefault(%+v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestQueryPlanDefaultMatchesQuery pins the tentpole equivalence: a Plan
// carrying only K must route every query byte-identically to the legacy
// Query across lattices × probe modes × static/overlay/compacted, with
// PlanStats reporting the full budget and no early termination.
func TestQueryPlanDefaultMatchesQuery(t *testing.T) {
	lattices := []LatticeKind{LatticeZM, LatticeE8}
	modes := []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy}
	stages := []string{"static", "overlay", "compacted"}
	for _, lat := range lattices {
		for _, mode := range modes {
			for _, stage := range stages {
				t.Run(fmt.Sprintf("%v/%v/%s", lat, mode, stage), func(t *testing.T) {
					ix, qs := equivIndex(t, lat, mode, stage != "static")
					if stage == "compacted" {
						if _, err := ix.Compact(); err != nil {
							t.Fatal(err)
						}
					}
					const k = 7
					for qi := 0; qi < qs.N; qi++ {
						q := qs.Row(qi)
						want, wantSt := ix.Query(q, k)
						got, ps := ix.QueryPlan(q, Plan{K: k})
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("query %d: result mismatch\n got %+v\nwant %+v", qi, got, want)
						}
						if !sameStats(ps.QueryStats, wantSt) {
							t.Fatalf("query %d: stats mismatch\n got %+v\nwant %+v", qi, ps.QueryStats, wantSt)
						}
						if ps.TerminatedEarly {
							t.Fatalf("query %d: default plan terminated early", qi)
						}
						if ps.ResolvedTables != ix.opts.Params.L {
							t.Fatalf("query %d: ResolvedTables = %d, want L = %d", qi, ps.ResolvedTables, ix.opts.Params.L)
						}
						if mode != ProbeHierarchy && ps.TablesProbed != ix.opts.Params.L {
							t.Fatalf("query %d: TablesProbed = %d, want %d", qi, ps.TablesProbed, ix.opts.Params.L)
						}
					}
				})
			}
		}
	}
}

// TestQueryBatchPlanDefaultMatchesQueryBatch pins the batch entry points
// (including the hierarchy median sizing rule and the parallel path) to
// the legacy batch API under a default plan.
func TestQueryBatchPlanDefaultMatchesQueryBatch(t *testing.T) {
	for _, mode := range []ProbeMode{ProbeSingle, ProbeHierarchy} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, qs := equivIndex(t, LatticeZM, mode, true)
			const k = 5
			wantRes, wantSt := ix.QueryBatch(qs, k)
			gotRes, ps := ix.QueryBatchPlan(qs, Plan{K: k})
			for qi := range wantRes {
				if !reflect.DeepEqual(gotRes[qi], wantRes[qi]) {
					t.Fatalf("batch query %d: result mismatch\n got %+v\nwant %+v", qi, gotRes[qi], wantRes[qi])
				}
				if !sameStats(ps[qi].QueryStats, wantSt[qi]) {
					t.Fatalf("batch query %d: stats mismatch\n got %+v\nwant %+v", qi, ps[qi].QueryStats, wantSt[qi])
				}
			}
			parRes, parPs := ix.QueryBatchParallelPlan(qs, Plan{K: k}, 4)
			for qi := range wantRes {
				if !reflect.DeepEqual(parRes[qi], wantRes[qi]) {
					t.Fatalf("parallel query %d: result mismatch\n got %+v\nwant %+v", qi, parRes[qi], wantRes[qi])
				}
				if !sameStats(parPs[qi].QueryStats, wantSt[qi]) {
					t.Fatalf("parallel query %d: stats mismatch\n got %+v\nwant %+v", qi, parPs[qi].QueryStats, wantSt[qi])
				}
			}
		})
	}
}

// TestPlanTablesOverride pins the Tables override: the probe loop visits
// exactly the requested number of tables, and fewer tables never scan
// more rows.
func TestPlanTablesOverride(t *testing.T) {
	ix, qs := allocIndex(t, ProbeSingle)
	L := ix.opts.Params.L
	q := qs.Row(0)
	prev := -1
	for tables := 1; tables <= L; tables++ {
		_, ps := ix.QueryPlan(q, Plan{K: 5, Tables: tables})
		if ps.ResolvedTables != tables || ps.TablesProbed != tables {
			t.Fatalf("tables=%d: resolved %d, probed %d", tables, ps.ResolvedTables, ps.TablesProbed)
		}
		if ps.Scanned < prev {
			t.Fatalf("tables=%d scanned %d < tables=%d scanned %d", tables, ps.Scanned, tables-1, prev)
		}
		prev = ps.Scanned
	}
	// Overflowing budgets clamp to L rather than failing.
	_, ps := ix.QueryPlan(q, Plan{K: 5, Tables: L + 100})
	if ps.ResolvedTables != L {
		t.Fatalf("Tables=%d resolved to %d, want clamp to L=%d", L+100, ps.ResolvedTables, L)
	}
}

// TestPlanTargetRecall pins the SLO resolution: the recall target maps
// through the collision model to a monotone table budget, and the full
// budget is restored as the target approaches the built recall.
func TestPlanTargetRecall(t *testing.T) {
	ix, qs := allocIndex(t, ProbeSingle)
	L := ix.opts.Params.L
	q := qs.Row(0)
	prev := 0
	for _, target := range []float64{0.05, 0.3, 0.6, 0.9, 0.99} {
		_, ps := ix.QueryPlan(q, Plan{K: 5, TargetRecall: target})
		if ps.ResolvedTables < 1 || ps.ResolvedTables > L {
			t.Fatalf("target %g resolved %d tables, want within [1, %d]", target, ps.ResolvedTables, L)
		}
		if ps.ResolvedTables < prev {
			t.Fatalf("target %g resolved %d tables, less than lower target's %d", target, ps.ResolvedTables, prev)
		}
		prev = ps.ResolvedTables
	}
	if prev != L {
		t.Fatalf("target 0.99 resolved %d tables, want the full L=%d", prev, L)
	}
	// An explicit Tables override beats the SLO.
	_, ps := ix.QueryPlan(q, Plan{K: 5, TargetRecall: 0.99, Tables: 1})
	if ps.ResolvedTables != 1 {
		t.Fatalf("Tables=1 with TargetRecall: resolved %d, want 1", ps.ResolvedTables)
	}
}

// TestPlanEarlyTermination exercises both termination policies: a
// one-candidate collision cap must fire on every non-trivial query, and a
// plateau window wider than the whole probe sequence must change nothing.
func TestPlanEarlyTermination(t *testing.T) {
	for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, qs := allocIndex(t, mode)
			const k = 5
			capped, full := 0, 0
			for qi := 0; qi < qs.N; qi++ {
				q := qs.Row(qi)
				res, ps := ix.QueryPlan(q, Plan{K: k, MaxCandidates: 1})
				if ps.TerminatedEarly {
					capped++
					if ps.Candidates < 1 {
						t.Fatalf("query %d: terminated with %d candidates", qi, ps.Candidates)
					}
				}
				if len(res.IDs) != len(res.Dists) {
					t.Fatalf("query %d: ragged result", qi)
				}

				// A plateau window longer than every probe sequence is a no-op.
				want, _ := ix.Query(q, k)
				got, ps2 := ix.QueryPlan(q, Plan{K: k, StableProbes: planLimit})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: huge plateau window changed results\n got %+v\nwant %+v", qi, got, want)
				}
				if !ps2.TerminatedEarly {
					full++
				}
			}
			if capped == 0 {
				t.Fatalf("MaxCandidates=1 never terminated early over %d queries", qs.N)
			}
			if full == 0 {
				t.Fatalf("StableProbes=%d terminated every query early", planLimit)
			}
		})
	}
	t.Run("multiprobe block lookup", testTerminationBlockLookup)
}

// refGatherPlanMulti is the multi-probe arm of the probe loop as it was
// before probe keys were looked up in blocks: every key resolved on its own
// with BucketBytes, and rp.stop consulted after every probe.
func refGatherPlanMulti(ix *Index, q []float32, rp *resolvedPlan) (map[int]struct{}, PlanStats) {
	sn := ix.loadSnap()
	gi := sn.groupOf(q)
	g := sn.groups[gi]
	ps := PlanStats{QueryStats: QueryStats{Group: gi}, ResolvedTables: rp.tables, ResolvedProbes: rp.probes}
	set := make(map[int]struct{})
	add := func(ids []int) {
		for _, p := range ids {
			if !sn.isDeleted(p) {
				ps.Scanned++
				set[sn.extID(p)] = struct{}{}
			}
		}
	}
	proj := make([]float64, sn.opts.Params.M)
	var mp multiprobe.Scratch
	var ts termState
	for t := 0; t < rp.tables && !ps.TerminatedEarly; t++ {
		ps.TablesProbed = t + 1
		g.fam.Project(t, q, proj)
		multiprobe.ProbesInto(&mp, g.lat, proj, rp.probes)
		for p := 0; p < mp.Probes(); p++ {
			ps.Probes++
			key := lattice.AppendKey(nil, mp.Probe(p))
			add(g.tables[t].BucketBytes(key))
			add(ix.overlayBucket(gi, t, string(key)))
			if rp.term() && rp.stop(&ts, len(set)) {
				ps.TerminatedEarly = true
				break
			}
		}
	}
	ps.Candidates = len(set)
	return set, ps
}

// testTerminationBlockLookup: with probe keys resolved a block at a time, a
// terminating plan must still stop after exactly the probe the per-key
// loop stopped after — same ids and distances, same Probes, Scanned,
// TablesProbed and TerminatedEarly — on an E8 multi-probe index with
// frozen overlay segments, an active memtable and tombstones.
func testTerminationBlockLookup(t *testing.T) {
	ix, qs := equivIndex(t, LatticeE8, ProbeMulti, true)
	const k = 7
	plans := []Plan{
		{K: k},
		{K: k, MaxCandidates: 1},
		{K: k, MaxCandidates: 25},
		{K: k, StableProbes: 3},
		{K: k, StableProbes: 9, MaxCandidates: 60, Probes: 100},
		{K: k, StableProbes: 40, Probes: 300, Tables: 3}, // into the second ring
	}
	early, midTable := 0, 0
	for _, p := range plans {
		rp := ix.loadSnap().resolve(p)
		for qi := 0; qi < qs.N; qi++ {
			q := qs.Row(qi)
			got, gotPS := ix.QueryPlan(q, p)
			set, wantPS := refGatherPlanMulti(ix, q, &rp)
			want := refRank(ix, q, set, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("plan %+v query %d: result mismatch\n got %+v\nwant %+v", p, qi, got, want)
			}
			gotPS.Timings = StageTimings{}
			if gotPS != wantPS {
				t.Fatalf("plan %+v query %d: stats mismatch\n got %+v\nwant %+v", p, qi, gotPS, wantPS)
			}
			if gotPS.TerminatedEarly {
				early++
				if gotPS.Probes%rp.probes != 0 {
					midTable++
				}
			}
		}
	}
	if early == 0 || midTable == 0 {
		t.Fatalf("%d early terminations, %d inside a table's probe block: the plans no longer exercise the per-probe stop", early, midTable)
	}
}

// TestQueryPlanAllocs pins the plan path to the legacy allocation
// budget: the result slices only, even with termination checks enabled.
func TestQueryPlanAllocs(t *testing.T) {
	for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, qs := allocIndex(t, mode)
			p := Plan{K: 5, StableProbes: 64, MaxCandidates: 4000}
			// Pin one scratch and measure resolve + execution, like
			// TestQueryAllocs: a GC clearing the pool between runs (or the
			// race detector's pool instrumentation) must not be charged to
			// the plan path.
			s := ix.getScratch()
			sn := ix.loadSnap()
			for i := 0; i < qs.N; i++ {
				rp := sn.resolve(p)
				sn.queryPlan(qs.Row(i), &rp, s)
			}
			qi := 0
			got := testing.AllocsPerRun(200, func() {
				rp := sn.resolve(p)
				sn.queryPlan(qs.Row(qi%qs.N), &rp, s)
				qi++
			})
			if got > 2 {
				t.Fatalf("QueryPlan allocates %.1f/op in steady state, want <= 2 (result slices only)", got)
			}
		})
	}
}
