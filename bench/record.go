package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"bilsh/internal/vec"
)

// metric is one named value of a run. Timing metrics are the median over the
// run's passes; Samples keeps the per-pass values and Q1/Q3 their quartiles.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

type environment struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"vec_kernel"`
}

// record is what one run leaves in out/: every metric with its samples,
// the environment it ran in and the outcome of its correctness checks.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Env       environment            `json:"env"`
	Params    map[string]interface{} `json:"params"`
	Passes    int                    `json:"passes"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Noisy     bool                   `json:"noisy"`
	CanaryNs  []float64              `json:"canary_ns,omitempty"`
	Metrics   map[string]metric      `json:"metrics"`
	Spans     map[string]spanSummary `json:"spans,omitempty"`

	order []string // metric names in the order they were set
}

func newRecord(w workload, seed int64, phase time.Duration, trace bool) *record {
	return &record{
		Workload: w.Name, Seed: seed, Trace: trace, Seconds: phase.Seconds(),
		Env: environment{
			Commit: commit(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Kernel: vec.KernelName(),
		},
		Params:  w.params(),
		Metrics: map[string]metric{},
	}
}

// commit names the tree being measured; the driver's checkouts are not git
// repositories, so the answer may be "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (r *record) set(name, unit string, v float64) {
	r.setMetric(name, metric{Value: v, Unit: unit})
}

// setMedian records the median of per-pass (or per-round) values.
func (r *record) setMedian(name, unit string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	r.setMetric(name, metric{Value: med, Unit: unit, Q1: q1, Q3: q3, Samples: samples})
}

func (r *record) setMetric(name string, m metric) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = m
}

// fail counts a failed operation; attempted is counted by the caller.
func (r *record) fail(format string, args ...interface{}) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *record) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// path is unique per run, so repeated runs of one seed accumulate in a
// directory for compare to read.
func (r *record) path() string {
	kind := "run"
	if r.Trace {
		kind = "trace"
	}
	return fmt.Sprintf("%s-%s-seed%d-%d.json", kind, r.Workload, r.Seed, time.Now().UnixNano())
}

func (r *record) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.path()), append(b, '\n'), 0o644)
}

// print writes the human-readable table and, as the last line, the one JSON
// object the driver reads.
func (r *record) print(w io.Writer) error {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  commit %s  nproc %d  GOMAXPROCS %d  %s  kernel %s\n",
		r.Workload, r.Seed, kind, r.Env.Commit, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Kernel)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s", name, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			fmt.Fprintf(w, "  median of %d  q1 %.6g  q3 %.6g", len(m.Samples), m.Q1, m.Q3)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  operations attempted %d  failed %d  passes %d  noisy %v\n", r.Attempted, r.Failed, r.Passes, r.Noisy)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]out{}}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		last.Metrics[name] = out{m.Value, m.Unit}
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method), which
// is what the driver applies to runs. One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
