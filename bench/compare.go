package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// loadRuns reads the end-to-end records under dirs: workload -> metric ->
// one value per run.
func loadRuns(dirs ...string) (map[string]map[string][]float64, error) {
	var paths []string
	for _, dir := range dirs {
		p, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
		if err != nil {
			return nil, err
		}
		if len(p) == 0 {
			return nil, fmt.Errorf("%s holds no run-*.json records", dir)
		}
		paths = append(paths, p...)
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// cmdCompare sets the runs under two directories side by side, A the parent
// and B the change, and judges each workload x end-to-end metric against
// its bound. A spread wider than the bound cannot resolve the bound, so the
// verdict is then "unresolved", not "ok".
func cmdCompare(args []string) error {
	if len(args) != 2 {
		usage()
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	b, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("A = %s, B = %s. delta and worse-by are shares of A's median; spread is the wider\n", args[0], args[1])
	fmt.Println("interquartile range of the two sides and range is (max - min) over all runs of both, as shares of A's median.")
	fmt.Println()
	fmt.Println("| workload | metric | unit | A median [q1, q3] (runs) | B median [q1, q3] (runs) | delta | worse by | bound | spread | range | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("| %s | %s | %s | - | - | - | - | %.3g %% | - | - | missing |\n", w.Name, m.Name, m.Unit, m.Bound*100)
				bad++
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			delta := (mb - ma) / ma
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			spread := math.Max(q3a-q1a, q3b-q1b) / math.Abs(ma)
			all := append(append([]float64(nil), va...), vb...)
			sort.Float64s(all)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.6g [%.6g, %.6g] (%d) | %.6g [%.6g, %.6g] (%d) | %+.2f %% of %.6g | %+.2f %% | %.3g %% | %.2f %% | %.2f %% | %s |\n",
				w.Name, m.Name, m.Unit, ma, q1a, q3a, len(va), mb, q1b, q3b, len(vb),
				delta*100, ma, worse*100, m.Bound*100, spread*100, (all[len(all)-1]-all[0])/math.Abs(ma)*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs are not ok", bad)
	}
	return nil
}

// cmdSpread prints, for the runs under one or more directories, what the
// driver computes before it accepts the benchmark: per workload x
// end-to-end metric, the distance between the first and third quartile over
// the runs as a share of their median, beside the metric's bound.
func cmdSpread(args []string) error {
	if len(args) == 0 {
		usage()
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	runs, err := loadRuns(args...)
	if err != nil {
		return err
	}
	fmt.Println("| workload | metric | unit | runs | median [q1, q3] | IQR / median | (max - min) / median | bound | within |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v := append([]float64(nil), runs[w.Name][m.Name]...)
			if len(v) < 2 {
				return fmt.Errorf("%s %s: %d runs, want at least 2", w.Name, m.Name, len(v))
			}
			sort.Float64s(v)
			q1, med, q3 := quartiles(v)
			iqr := (q3 - q1) / math.Abs(med)
			within := "a third of the bound"
			switch {
			case m.Name == "setup_s":
				within = "(not held to it)"
			case iqr > m.Bound:
				within = "NOT the bound"
				bad++
			case iqr > m.Bound/3:
				within = "the bound"
			}
			fmt.Printf("| %s | %s | %s | %d | %.6g [%.6g, %.6g] | %.2f %% | %.2f %% | %.3g %% | %s |\n",
				w.Name, m.Name, m.Unit, len(v), med, q1, q3, iqr*100, (v[len(v)-1]-v[0])/math.Abs(med)*100, m.Bound*100, within)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs spread wider than their bound", bad)
	}
	return nil
}
