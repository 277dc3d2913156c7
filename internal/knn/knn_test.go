package knn

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"bilsh/internal/dataset"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

func TestExactSmall(t *testing.T) {
	data := vec.FromRows([][]float32{{0}, {10}, {2}, {-1}})
	r := Exact(data, []float32{0.4}, 2)
	if !reflect.DeepEqual(r.IDs, []int{0, 3}) {
		t.Fatalf("IDs = %v, want [0 3]", r.IDs)
	}
	if r.Dists[0] >= r.Dists[1] {
		t.Fatal("distances must be ascending")
	}
}

func TestExactKLargerThanN(t *testing.T) {
	data := vec.FromRows([][]float32{{0}, {1}})
	r := Exact(data, []float32{0}, 5)
	if len(r.IDs) != 2 {
		t.Fatalf("got %d ids, want all 2", len(r.IDs))
	}
}

// Property: ExactAll agrees with a naive full sort for random instances.
func TestExactMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(60)
		d := 1 + rng.Intn(6)
		k := 1 + rng.Intn(8)
		data := dataset.Gaussian(n, d, 1, rng.Split(1))
		q := rng.GaussianVec(d)
		got := Exact(data, q, k)

		type pair struct {
			id int
			d  float64
		}
		ps := make([]pair, n)
		for i := 0; i < n; i++ {
			ps[i] = pair{i, vec.SqDist(data.Row(i), q)}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].d != ps[j].d {
				return ps[i].d < ps[j].d
			}
			return ps[i].id < ps[j].id
		})
		if k > n {
			k = n
		}
		for i := 0; i < k; i++ {
			if got.IDs[i] != ps[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExactAllMatchesSingle(t *testing.T) {
	rng := xrand.New(5)
	data := dataset.Gaussian(200, 8, 1, rng.Split(0))
	queries := dataset.Gaussian(17, 8, 1, rng.Split(1))
	all := ExactAll(data, queries, 4)
	for q := 0; q < queries.N; q++ {
		one := Exact(data, queries.Row(q), 4)
		if !reflect.DeepEqual(all[q].IDs, one.IDs) {
			t.Fatalf("query %d: parallel %v != serial %v", q, all[q].IDs, one.IDs)
		}
	}
}

func TestRecall(t *testing.T) {
	truth := []int{1, 2, 3, 4}
	if got := Recall(truth, []int{2, 4, 9, 10}); got != 0.5 {
		t.Fatalf("Recall = %v, want 0.5", got)
	}
	if got := Recall(truth, truth); got != 1 {
		t.Fatalf("perfect Recall = %v", got)
	}
	if got := Recall(truth, nil); got != 0 {
		t.Fatalf("empty-result Recall = %v", got)
	}
	if got := Recall(nil, []int{1}); got != 0 {
		t.Fatalf("empty-truth Recall = %v", got)
	}
}

func TestErrorRatio(t *testing.T) {
	// Exact match: ratio 1 at every position.
	td := []float64{1, 4, 9}
	if got := ErrorRatio(td, td); math.Abs(got-1) > 1e-12 {
		t.Fatalf("exact ErrorRatio = %v, want 1", got)
	}
	// Approximate twice as far at every position: ratio 0.5.
	gd := []float64{4, 16, 36}
	if got := ErrorRatio(td, gd); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("2x ErrorRatio = %v, want 0.5", got)
	}
	// Short approximate list: missing tail contributes 0.
	if got := ErrorRatio(td, td[:1]); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("truncated ErrorRatio = %v, want 1/3", got)
	}
	// Zero distances (duplicate points) contribute 1, not NaN.
	if got := ErrorRatio([]float64{0}, []float64{0}); got != 1 {
		t.Fatalf("zero-dist ErrorRatio = %v, want 1", got)
	}
}

func TestErrorRatioAtMostOne(t *testing.T) {
	// Approximate distances can never beat exact ground truth, so kappa<=1.
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		k := 1 + rng.Intn(10)
		td := make([]float64, k)
		gd := make([]float64, k)
		prev := 0.0
		for i := 0; i < k; i++ {
			prev += rng.Float64()
			td[i] = prev * prev
			gd[i] = (prev + rng.Float64()) * (prev + rng.Float64())
		}
		kappa := ErrorRatio(td, gd)
		return kappa <= 1+1e-9 && kappa >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectivity(t *testing.T) {
	if got := Selectivity(25, 100); got != 0.25 {
		t.Fatalf("Selectivity = %v", got)
	}
	if got := Selectivity(5, 0); got != 0 {
		t.Fatalf("Selectivity with n=0 = %v", got)
	}
}

func TestAggregateQueries(t *testing.T) {
	ms := []QueryMeasure{
		{Recall: 1, ErrorRatio: 1, Selectivity: 0.2},
		{Recall: 0, ErrorRatio: 0.5, Selectivity: 0.4},
	}
	r := AggregateQueries(ms)
	if r.Recall.Mean != 0.5 || math.Abs(r.Selectivity.Mean-0.3) > 1e-12 {
		t.Fatalf("aggregate = %+v", r)
	}
	if r.Recall.Std != 0.5 {
		t.Fatalf("recall std = %v, want 0.5", r.Recall.Std)
	}
}

func TestAggregateRuns(t *testing.T) {
	runs := []RunMeasure{
		{Recall: vec.Stats{Mean: 0.8, Std: 0.1},
			ErrorRatio:  vec.Stats{Mean: 0.9, Std: 0.05},
			Selectivity: vec.Stats{Mean: 0.2, Std: 0.02}},
		{Recall: vec.Stats{Mean: 0.6, Std: 0.3},
			ErrorRatio:  vec.Stats{Mean: 0.7, Std: 0.15},
			Selectivity: vec.Stats{Mean: 0.4, Std: 0.04}},
	}
	s := AggregateRuns(runs)
	if s.MeanRecall != 0.7 || s.Runs != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.ProjStdRecall-0.1) > 1e-12 {
		t.Fatalf("proj std recall = %v, want 0.1", s.ProjStdRecall)
	}
	if math.Abs(s.QueryStdRecall-0.2) > 1e-12 {
		t.Fatalf("query std recall = %v, want 0.2", s.QueryStdRecall)
	}
	if z := AggregateRuns(nil); z.Runs != 0 {
		t.Fatalf("empty AggregateRuns = %+v", z)
	}
}

func TestMeasureEndToEnd(t *testing.T) {
	rng := xrand.New(10)
	data := dataset.Gaussian(300, 6, 1, rng.Split(0))
	q := rng.GaussianVec(6)
	truth := Exact(data, q, 5)
	m := Measure(truth, truth, 50, data.N)
	if m.Recall != 1 || math.Abs(m.ErrorRatio-1) > 1e-12 {
		t.Fatalf("self-measure = %+v", m)
	}
	if math.Abs(m.Selectivity-50.0/300) > 1e-12 {
		t.Fatalf("selectivity = %v", m.Selectivity)
	}
}

func TestParallelForCoversAllIndexesUnderContention(t *testing.T) {
	// Drive ExactAll's fan-out on four workers whatever GOMAXPROCS the
	// test machine has (at 1 it runs inline): every query's answer is the
	// one Exact gives it alone, so each was claimed once and written to
	// its own slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := xrand.New(29)
	data, queries := vec.NewMatrix(300, 6), vec.NewMatrix(500, 6)
	for _, m := range []*vec.Matrix{data, queries} {
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	got := ExactAll(data, queries, 3)
	for q := range got {
		want := Exact(data, queries.Row(q), 3)
		if !reflect.DeepEqual(got[q], want) {
			t.Fatalf("query %d: ExactAll %v, Exact %v", q, got[q], want)
		}
	}
}
