package experiments

import (
	"bytes"
	"strings"
	"testing"

	"bilsh/internal/knn"
)

// sharedWorkload is built once; the harness runs are the expensive part.
var sharedWL *Workload

func workload(t *testing.T) *Workload {
	t.Helper()
	if sharedWL == nil {
		w, err := NewWorkload(Tiny())
		if err != nil {
			t.Fatal(err)
		}
		sharedWL = w
	}
	return sharedWL
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Tiny().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Tiny()
	bad.N = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("N=0 must be invalid")
	}
	bad = Tiny()
	bad.WScales = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty WScales must be invalid")
	}
}

func TestWorkloadShape(t *testing.T) {
	w := workload(t)
	cfg := Tiny()
	if w.Train.N != cfg.N || w.Queries.N != cfg.Queries {
		t.Fatalf("workload sizes %d/%d", w.Train.N, w.Queries.N)
	}
	if len(w.Truth) != cfg.Queries {
		t.Fatal("truth missing")
	}
	if len(w.Truth[0].IDs) != cfg.K {
		t.Fatalf("truth K = %d", len(w.Truth[0].IDs))
	}
}

// checkFigure validates the structural invariants every harness output
// must satisfy.
func checkFigure(t *testing.T, res FigureResult, wantSeries int) {
	t.Helper()
	if len(res.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", res.ID, len(res.Series), wantSeries)
	}
	cfg := Tiny()
	for _, s := range res.Series {
		if len(s.Points) != len(cfg.WScales) {
			t.Fatalf("%s/%s: %d points, want %d", res.ID, s.Method, len(s.Points), len(cfg.WScales))
		}
		prevSel := -1.0
		for _, p := range s.Points {
			if p.MeanRecall < 0 || p.MeanRecall > 1 {
				t.Fatalf("%s/%s: recall %v out of range", res.ID, s.Method, p.MeanRecall)
			}
			if p.MeanError < 0 || p.MeanError > 1.0001 {
				t.Fatalf("%s/%s: error ratio %v out of range", res.ID, s.Method, p.MeanError)
			}
			// Scanned-entry selectivity can exceed 1 but never L (each
			// table contributes at most the whole group).
			if p.MeanSelectivity < 0 || p.MeanSelectivity > float64(s.L)+0.001 {
				t.Fatalf("%s/%s: selectivity %v out of range", res.ID, s.Method, p.MeanSelectivity)
			}
			// Wider buckets must not shrink selectivity (weak monotone
			// check with float slack for the tiny scale).
			if p.MeanSelectivity < prevSel-0.05 {
				t.Fatalf("%s/%s: selectivity not monotone in W", res.ID, s.Method)
			}
			prevSel = p.MeanSelectivity
		}
		// Recall should grow with W overall; allow smoke-scale noise
		// (multiprobe at wider buckets can trade a little recall, which
		// the paper also observes for E8 multiprobe).
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.MeanRecall+0.06 < first.MeanRecall {
			t.Fatalf("%s/%s: recall decreased across the W sweep (%.3f -> %.3f)",
				res.ID, s.Method, first.MeanRecall, last.MeanRecall)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), res.ID) {
		t.Fatal("table missing figure id")
	}
}

func TestFigure5(t *testing.T) {
	res, err := Figure5(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
}
func TestFigure6(t *testing.T) {
	res, err := Figure6(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
}
func TestFigure7(t *testing.T) {
	res, err := Figure7(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
}
func TestFigure8(t *testing.T) {
	res, err := Figure8(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
}
func TestFigure9(t *testing.T) {
	res, err := Figure9(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
}
func TestFigure10(t *testing.T) {
	res, err := Figure10(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
}

func TestFigure11(t *testing.T) {
	res, err := Figure11(workload(t))
	noErr(t, err)
	checkFigure(t, res, 6)
}

func TestFigure12(t *testing.T) {
	res, err := Figure12(workload(t))
	noErr(t, err)
	checkFigure(t, res, 6)
}

func TestFigure13a(t *testing.T) {
	res, err := Figure13a(workload(t), []int{1, 4})
	noErr(t, err)
	checkFigure(t, res, 2)
}

func TestFigure13b(t *testing.T) {
	res, err := Figure13b(workload(t), []int{4, 8})
	noErr(t, err)
	checkFigure(t, res, 4)
}

func TestFigure13c(t *testing.T) {
	res, err := Figure13c(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
}

func TestRPRuleComparison(t *testing.T) {
	res, err := RPRuleComparison(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
}

func TestTunerAblation(t *testing.T) {
	res, err := TunerAblation(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
}

func TestFigure4(t *testing.T) {
	res, err := Figure4(workload(t))
	noErr(t, err)
	cfg := Tiny()
	if len(res.Points) != len(cfg.WScales) {
		t.Fatalf("fig4 points = %d", len(res.Points))
	}
	prev := 0
	for _, p := range res.Points {
		if p.Row.Candidates < prev {
			t.Fatal("fig4 candidate volume must grow with W")
		}
		prev = p.Row.Candidates
		if p.Row.Candidates > 0 {
			if !(p.Row.CPUOnly > p.Row.GPUHashCPUSL &&
				p.Row.GPUHashCPUSL > p.Row.PureGPU &&
				p.Row.PureGPU > p.Row.PureGPUQueued) {
				t.Fatalf("fig4 ordering violated: %+v", p.Row)
			}
		}
		if p.Serial.DistanceOps > p.Queue.DistanceOps {
			t.Fatal("serial engine (deduped) cannot do more distance work than the queue")
		}
	}
	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig4") {
		t.Fatal("fig4 table missing header")
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Points: []Point{
		{WScale: 1, VarianceSummary: summaryWith(0.1, 0.5, 0.01, 0.02)},
		{WScale: 2, VarianceSummary: summaryWith(0.3, 0.9, 0.03, 0.04)},
	}}
	if r, ok := s.BestRecallAt(0.12); !ok || r != 0.5 {
		t.Fatalf("BestRecallAt = %v,%v", r, ok)
	}
	if r, ok := s.InterpolateRecallAt(0.2); !ok || r < 0.699 || r > 0.701 {
		t.Fatalf("InterpolateRecallAt = %v,%v", r, ok)
	}
	if _, ok := s.InterpolateRecallAt(0.9); ok {
		t.Fatal("out-of-range interpolation must fail")
	}
	if got := s.MeanProjStdRecall(); got != 0.02 {
		t.Fatalf("MeanProjStdRecall = %v", got)
	}
	if got := s.MeanQueryStdRecall(); got != 0.03 {
		t.Fatalf("MeanQueryStdRecall = %v", got)
	}
	var empty Series
	if empty.MeanProjStdRecall() != 0 || empty.MeanQueryStdRecall() != 0 {
		t.Fatal("empty series helpers must be zero")
	}
}

func summaryWith(sel, recall, projStd, qryStd float64) knn.VarianceSummary {
	return knn.VarianceSummary{
		MeanSelectivity: sel,
		MeanRecall:      recall,
		ProjStdRecall:   projStd,
		QueryStdRecall:  qryStd,
		Runs:            1,
	}
}

func noErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestLatticeComparison(t *testing.T) {
	res, err := LatticeComparison(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
}

func TestGroupRouting(t *testing.T) {
	res, err := GroupRouting(workload(t))
	noErr(t, err)
	checkFigure(t, res, 2)
	// The oracle (second series) must dominate the bi-level curve's
	// recall at every sweep point: it scans the whole group.
	bi, oracle := res.Series[0], res.Series[1]
	for i := range bi.Points {
		if oracle.Points[i].MeanRecall+0.02 < bi.Points[i].MeanRecall {
			t.Fatalf("oracle below bi-level at point %d", i)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	res, err := Figure13c(workload(t))
	noErr(t, err)
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantRows := 1 // header
	for _, s := range res.Series {
		wantRows += len(s.Points)
	}
	if len(lines) != wantRows {
		t.Fatalf("csv has %d lines, want %d", len(lines), wantRows)
	}
	if !strings.HasPrefix(lines[0], "figure,method,L,wscale") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestFigure4CSV(t *testing.T) {
	res, err := Figure4(workload(t))
	noErr(t, err)
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + two geometries per point.
	if want := 1 + 2*len(res.Points); len(lines) != want {
		t.Fatalf("fig4 csv has %d lines, want %d", len(lines), want)
	}
	if !strings.Contains(buf.String(), "paper(d384,k500)") {
		t.Fatal("fig4 csv missing paper-geometry rows")
	}
}

func TestProfiles(t *testing.T) {
	cfg := Tiny()
	cfg.Clusters = 0 // let the profile decide
	cfg.Profile = "tinyimages"
	w, err := NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Train.N != cfg.N {
		t.Fatalf("profile workload has %d train rows", w.Train.N)
	}
	cfg.Profile = "nonsense"
	if _, err := NewWorkload(cfg); err == nil {
		t.Fatal("unknown profile must be rejected")
	}
	// The two profiles must generate different data.
	a, err := NewWorkload(Config{N: 200, Queries: 20, D: 16, K: 5, M: 8,
		Groups: 4, Reps: 1, WScales: []float64{1}, Seed: 5, Profile: "labelme"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkload(Config{N: 200, Queries: 20, D: 16, K: 5, M: 8,
		Groups: 4, Reps: 1, WScales: []float64{1}, Seed: 5, Profile: "tinyimages"})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Train.Data {
		if a.Train.Data[i] != b.Train.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("profiles generated identical data")
	}
}

func TestProbeBudget(t *testing.T) {
	res, err := ProbeBudget(workload(t), []int{1, 8})
	noErr(t, err)
	checkFigure(t, res, 2)
	// More probes must not shrink the candidate pool (selectivity) at the
	// same sweep point.
	single, multi := res.Series[0], res.Series[1]
	for i := range single.Points {
		if multi.Points[i].MeanSelectivity+1e-9 < single.Points[i].MeanSelectivity {
			t.Fatalf("probes=8 scanned less than probes=1 at point %d", i)
		}
	}
}

func TestAspectVariance(t *testing.T) {
	cfg := Tiny()
	cfg.N, cfg.Queries, cfg.Reps = 400, 40, 2
	res, err := AspectVariance(cfg, []float64{1, 8})
	noErr(t, err)
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4 (2 aspects x 2 methods)", len(res.Points))
	}
	for _, p := range res.Points {
		if p.MeanRecall < 0 || p.MeanRecall > 1 || p.ProjStdRecall < 0 {
			t.Fatalf("implausible point %+v", p)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "aspect-variance") {
		t.Fatal("table header missing")
	}
}
