package core

import (
	"math"
	"reflect"
	"testing"

	"bilsh/internal/dataset"
	"bilsh/internal/knn"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

func testData(t *testing.T, n, d int, seed int64) *vec.Matrix {
	t.Helper()
	spec := dataset.ClusteredSpec{N: n, D: d, Clusters: 6, IntrinsicDim: 4,
		Aspect: 4, NoiseSigma: 0.05, Spread: 6, PowerLaw: 0.8}
	m, _, err := dataset.Clustered(spec, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildVariants(t *testing.T) {
	data := testData(t, 400, 24, 1)
	variants := []Options{
		{Partitioner: PartitionNone, Params: lshfunc.Params{M: 4, L: 3, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, Params: lshfunc.Params{M: 4, L: 3, W: 2}},
		{Partitioner: PartitionKMeans, Groups: 4, Params: lshfunc.Params{M: 4, L: 3, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, Lattice: LatticeE8,
			Params: lshfunc.Params{M: 8, L: 2, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, ProbeMode: ProbeMulti, Probes: 20,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, ProbeMode: ProbeHierarchy,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, Lattice: LatticeE8,
			ProbeMode: ProbeHierarchy, Params: lshfunc.Params{M: 8, L: 2, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, AutoTuneW: true,
			Params: lshfunc.Params{M: 4, L: 2, W: 1}},
		{Partitioner: PartitionRPTree, Groups: 4, Lattice: LatticeE8,
			ProbeMode: ProbeMulti, Probes: 20, Params: lshfunc.Params{M: 8, L: 2, W: 2}},
	}
	for i, opts := range variants {
		ix, err := Build(data, opts, xrand.New(int64(i)))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		q := data.Row(0)
		res, st := ix.Query(q, 5)
		if len(res.IDs) == 0 {
			t.Fatalf("variant %d: no results", i)
		}
		if st.Candidates <= 0 || st.Candidates > data.N {
			t.Fatalf("variant %d: candidates = %d", i, st.Candidates)
		}
		if st.Group < 0 || st.Group >= ix.NumGroups() {
			t.Fatalf("variant %d: group = %d", i, st.Group)
		}
		// Distances must be sorted ascending.
		for j := 1; j < len(res.Dists); j++ {
			if res.Dists[j] < res.Dists[j-1] {
				t.Fatalf("variant %d: unsorted distances", i)
			}
		}
	}
}

func TestHugeWGivesPerfectRecall(t *testing.T) {
	// With W far larger than the data spread every in-group point shares
	// one bucket, so a point's group-mates are all candidates and a stored
	// point must find itself as its own nearest neighbor.
	data := testData(t, 300, 16, 2)
	ix, err := Build(data, Options{
		Partitioner: PartitionNone,
		Params:      lshfunc.Params{M: 4, L: 2, W: 1e9},
	}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	truth := knn.ExactAll(data, data.Subset([]int{0, 5, 10}), 10)
	for i, row := range []int{0, 5, 10} {
		res, st := ix.Query(data.Row(row), 10)
		if got := knn.Recall(truth[i].IDs, res.IDs); got != 1 {
			t.Fatalf("row %d: recall = %v with infinite W", row, got)
		}
		if st.Candidates != data.N {
			t.Fatalf("row %d: candidates = %d, want all %d", row, st.Candidates, data.N)
		}
	}
}

func TestStoredPointFindsItself(t *testing.T) {
	data := testData(t, 500, 16, 4)
	for _, opts := range []Options{
		{Partitioner: PartitionRPTree, Groups: 8, Params: lshfunc.Params{M: 4, L: 4, W: 4}},
		{Partitioner: PartitionRPTree, Groups: 8, Lattice: LatticeE8,
			Params: lshfunc.Params{M: 8, L: 4, W: 4}},
	} {
		ix, err := Build(data, opts, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range []int{1, 100, 499} {
			res, _ := ix.Query(data.Row(row), 1)
			if len(res.IDs) == 0 || res.IDs[0] != row || res.Dists[0] != 0 {
				t.Fatalf("lattice %v: stored row %d not its own NN: %+v", opts.Lattice, row, res)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	data := testData(t, 300, 12, 6)
	opts := Options{Partitioner: PartitionRPTree, Groups: 4,
		Params: lshfunc.Params{M: 4, L: 3, W: 3}}
	a, err := Build(data, opts, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(data, opts, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	q := xrand.New(8).GaussianVec(12)
	ra, sa := a.Query(q, 5)
	rb, sb := b.Query(q, 5)
	if sa.Candidates != sb.Candidates || len(ra.IDs) != len(rb.IDs) {
		t.Fatal("identical seeds produced different indexes")
	}
	for i := range ra.IDs {
		if ra.IDs[i] != rb.IDs[i] {
			t.Fatal("identical seeds produced different results")
		}
	}
}

func TestMultiprobeWidensCandidates(t *testing.T) {
	data := testData(t, 500, 16, 9)
	base := Options{Partitioner: PartitionNone, Params: lshfunc.Params{M: 8, L: 2, W: 1.5}}
	single, err := Build(data, base, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	multi := base
	multi.ProbeMode = ProbeMulti
	multi.Probes = 50
	probed, err := Build(data, multi, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	var sSum, mSum int
	for i := 0; i < 20; i++ {
		q := data.Row(i * 7)
		_, st1 := single.Query(q, 5)
		_, st2 := probed.Query(q, 5)
		sSum += st1.Candidates
		mSum += st2.Candidates
		if st2.Candidates < st1.Candidates {
			t.Fatalf("query %d: multiprobe produced fewer candidates (%d < %d)",
				i, st2.Candidates, st1.Candidates)
		}
	}
	if mSum <= sSum {
		t.Fatal("multiprobe did not widen the candidate pool")
	}
}

func TestHierarchyHelpsSparseQueries(t *testing.T) {
	data := testData(t, 400, 16, 11)
	opts := Options{Partitioner: PartitionNone, ProbeMode: ProbeHierarchy,
		Params: lshfunc.Params{M: 8, L: 2, W: 0.8}, HierMinCandidates: 40}
	ix, err := Build(data, opts, xrand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	// A far-away query lands in an empty bucket; the hierarchy must still
	// produce at least the requested floor.
	far := make([]float32, 16)
	for i := range far {
		far[i] = 1000
	}
	res, st := ix.Query(far, 5)
	if st.Candidates < 40 && st.Candidates != data.N {
		t.Fatalf("sparse query got %d candidates, want >= 40", st.Candidates)
	}
	if len(res.IDs) != 5 {
		t.Fatalf("sparse query returned %d results", len(res.IDs))
	}
	if st.HierarchyLevel == 0 {
		t.Fatal("sparse query should have climbed the hierarchy")
	}
}

func TestQueryBatchMedianRule(t *testing.T) {
	data := testData(t, 600, 16, 13)
	opts := Options{Partitioner: PartitionNone, ProbeMode: ProbeHierarchy,
		Params: lshfunc.Params{M: 8, L: 2, W: 1.2}}
	ix, err := Build(data, opts, xrand.New(14))
	if err != nil {
		t.Fatal(err)
	}
	queries := data.Subset([]int{0, 10, 20, 30, 40, 50, 60, 70})
	results, stats := ix.QueryBatch(queries, 5)
	if len(results) != 8 || len(stats) != 8 {
		t.Fatal("batch sizes wrong")
	}
	for i, r := range results {
		if len(r.IDs) == 0 {
			t.Fatalf("query %d: empty result", i)
		}
	}
	// The batch's candidate floor is the median: every query must have at
	// least min(median, everything-reachable) candidates.
	sizes := make([]int, queries.N)
	sn := ix.loadSnap()
	plain := sn.defaultResolved(5)
	plain.mode = ProbeSingle
	for qi := 0; qi < queries.N; qi++ {
		sizes[qi] = sn.gatherPlan(queries.Row(qi), &plain, &scratch{}).Candidates
	}
	median := medianInt(sizes)
	for i, st := range stats {
		if st.Candidates < median && st.Candidates < data.N {
			t.Fatalf("query %d: %d candidates below median %d", i, st.Candidates, median)
		}
	}

	// The rule lifts only queries strictly below the median: in a batch
	// that repeats one query every query sits exactly at it and keeps its
	// home group. Over buckets wide enough for the plain sizes to vary
	// (2, 1, 1, 10, 9, 5, 5, 2), both batches must match the reference
	// protocol.
	opts.Params.W = 5
	wide, err := Build(data, opts, xrand.New(14))
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []*vec.Matrix{queries, queries.Subset([]int{0, 0, 0, 0, 0})} {
		got, gotSt := wide.QueryBatch(qs, 5)
		want, wantSt := refQueryBatch(wide, qs, 5)
		for qi := range want {
			if !reflect.DeepEqual(got[qi], want[qi]) || !sameStats(gotSt[qi], wantSt[qi]) {
				t.Fatalf("batch of %d, query %d: got %+v %+v, want %+v %+v", qs.N, qi, got[qi], gotSt[qi], want[qi], wantSt[qi])
			}
		}
	}
}

func TestBiLevelBeatsStandardAtEqualSelectivity(t *testing.T) {
	// The headline claim (Figs. 5-6), smoke-scale: on clustered data and a
	// mid-range W, bi-level recall should not be materially below standard
	// LSH recall while selectivity is not materially above. We compare the
	// quality-per-selectivity ratio to allow for noise at this scale.
	spec := dataset.ClusteredSpec{N: 1200, D: 32, Clusters: 8, IntrinsicDim: 4,
		Aspect: 6, NoiseSigma: 0.05, Spread: 10, PowerLaw: 0.8}
	data, _, err := dataset.Clustered(spec, xrand.New(15))
	if err != nil {
		t.Fatal(err)
	}
	train := data.Subset(rangeInts(0, 1000))
	queries := data.Subset(rangeInts(1000, 1200))
	truth := knn.ExactAll(train, queries, 10)

	run := func(part PartitionerKind) (recall, sel float64) {
		var rSum, sSum float64
		const reps = 3
		for rep := 0; rep < reps; rep++ {
			ix, err := Build(train, Options{
				Partitioner: part, Groups: 8, AutoTuneW: part != PartitionNone,
				Params: lshfunc.Params{M: 8, L: 5, W: 3},
			}, xrand.New(int64(20+rep)))
			if err != nil {
				t.Fatal(err)
			}
			if part == PartitionNone {
				// Give standard LSH its own tuned global W for fairness.
				ixT, err := Build(train, Options{
					Partitioner: part, AutoTuneW: true,
					Params: lshfunc.Params{M: 8, L: 5, W: 3},
				}, xrand.New(int64(20+rep)))
				if err != nil {
					t.Fatal(err)
				}
				ix = ixT
			}
			for qi := 0; qi < queries.N; qi++ {
				res, st := ix.Query(queries.Row(qi), 10)
				rSum += knn.Recall(truth[qi].IDs, res.IDs)
				sSum += float64(st.Candidates) / float64(train.N)
			}
		}
		n := float64(reps * queries.N)
		return rSum / n, sSum / n
	}
	stdRecall, stdSel := run(PartitionNone)
	biRecall, biSel := run(PartitionRPTree)
	t.Logf("standard: recall=%.3f sel=%.3f; bi-level: recall=%.3f sel=%.3f",
		stdRecall, stdSel, biRecall, biSel)
	// Quality per unit selectivity must favor (or at least not collapse
	// under) the bi-level scheme.
	if biSel > 0 && stdSel > 0 {
		stdEff := stdRecall / math.Max(stdSel, 1e-9)
		biEff := biRecall / math.Max(biSel, 1e-9)
		if biEff < 0.8*stdEff {
			t.Fatalf("bi-level efficiency %.2f collapsed vs standard %.2f", biEff, stdEff)
		}
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func TestAccessorsAndSummary(t *testing.T) {
	data := testData(t, 200, 12, 16)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 4,
		Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != 200 || ix.Dim() != 12 {
		t.Fatal("N/Dim wrong")
	}
	if ix.NumGroups() != 4 {
		t.Fatalf("groups = %d", ix.NumGroups())
	}
	total := 0
	for g := 0; g < ix.NumGroups(); g++ {
		total += ix.GroupSize(g)
		if ix.GroupW(g) <= 0 {
			t.Fatal("group W must be positive")
		}
	}
	if total != 200 {
		t.Fatalf("group sizes sum to %d", total)
	}
	s := ix.TableSummary()
	if s.Items != 200*2 { // L=2 tables store every member once each
		t.Fatalf("summary items = %d", s.Items)
	}
	if s.Buckets == 0 || s.CollisionMass <= 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestEmptyDataRejected(t *testing.T) {
	empty := vec.NewMatrix(0, 4)
	if _, err := Build(empty, Options{}, xrand.New(1)); err == nil {
		t.Fatal("empty dataset must be rejected")
	}
}

func TestStringers(t *testing.T) {
	if PartitionRPTree.String() != "rptree" || LatticeE8.String() != "E8" ||
		ProbeMulti.String() != "multiprobe" {
		t.Fatal("stringers wrong")
	}
	if PartitionerKind(9).String() == "" || LatticeKind(9).String() == "" ||
		ProbeMode(9).String() == "" {
		t.Fatal("unknown values must still format")
	}
}
