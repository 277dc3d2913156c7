package main

import (
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs every workload's code path end to end at n = 2000 -
// set-up, timed passes, churn, the serve child, the traced run - and holds
// the output to BENCHMARK.json: every named metric present with its unit,
// the count-based metrics identical across seeds, no failed operation.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	check := func(t *testing.T, rec *record, want []metricSpec) {
		t.Helper()
		if rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("attempted %d, failed %d: %v", rec.Attempted, rec.Failed, rec.Failures)
		}
		if len(rec.Metrics) != len(want) {
			t.Errorf("%d metrics, BENCHMARK.json names %d", len(rec.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := rec.Metrics[m.Name]
			switch {
			case !name.MatchString(m.Name):
				t.Errorf("metric name %q", m.Name)
			case !ok:
				t.Errorf("metric %s missing", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
	}
	for i, w := range workloads {
		if w.Name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.Name, spec.Workloads[i].Name)
		}
		w.Name += "-smoke" // its own cache directory
		w.N, w.D, w.Queries, w.Inserts, w.Memtable = 2000, min(w.D, 64), 100, 80, 64
		t.Run(w.Name, func(t *testing.T) {
			if err := genInputs(w, inputsDir(w)); err != nil {
				t.Fatal(err)
			}
			var runs []*record
			for seed := int64(1); seed <= 2; seed++ {
				in, err := loadInputs(inputsDir(w))
				if err != nil {
					t.Fatal(err)
				}
				in.shuffle(seed)
				rec, err := runWorkload(w, in, seed, 90*time.Millisecond, false)
				if err != nil {
					t.Fatal(err)
				}
				check(t, rec, spec.EndToEnd)
				runs = append(runs, rec)
			}
			for _, m := range []string{"recall_at_10", "selectivity", "index_bytes_per_vec"} {
				if a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value; a != b {
					t.Errorf("%s differs between seeds: %v, %v", m, a, b)
				}
			}
			in, err := loadInputs(inputsDir(w))
			if err != nil {
				t.Fatal(err)
			}
			in.shuffle(1)
			rec, err := runWorkload(w, in, 1, 90*time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rec, spec.PerLayer)
			if len(rec.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}
