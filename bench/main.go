// Command bench is the repository's benchmark: four workloads, each chosen
// so that one layer of the index dominates, measured from outside through
// the public API of bilsh/internal/... and the HTTP API of 'bilsh serve'.
// README.md in this directory is the glossary; BENCHMARK.json at the
// repository root fixes the metric names, directions and bounds.
//
// Run it from this directory (run.sh does, for the driver):
//
//	go run . run -workload scan-60k-d128 -seed 1            end-to-end metrics
//	go run . run -workload all -seed 1 -trace 1             per-layer metrics
//	go run . compare out/A out/B                            parent against change
//	go run . spread out/A                                   run-to-run spread against the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "spread":
		err = cmdSpread(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bench run -workload <name|all> [-seed n] [-seconds s] [-trace 0|1] [-out dir]
       bench gen -workload <name>
       bench compare <dirA> <dirB>
       bench spread <dir>...`)
	os.Exit(2)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	fs.Parse(args)
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	return genInputs(w, inputsDir(w))
}

// self runs this binary again: inputs are generated, and each workload of
// "all" is measured, in a process of its own.
func self(args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "draws the order of queries and inserts")
	seconds := fs.Int("seconds", 18, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics with spans, 0 the end-to-end metrics")
	out := fs.String("out", "out", "directory for the run record")
	fs.Parse(args)
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", *seconds)
	}

	if *name == "all" {
		var failed []string
		for _, w := range workloads {
			if err := self("run", "-workload", w.Name, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
				"-trace", fmt.Sprint(*trace), "-out", *out); err != nil {
				failed = append(failed, w.Name)
			}
		}
		if failed != nil {
			return fmt.Errorf("failed: %v", failed)
		}
		return nil
	}

	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	// The box has two cores and is shared; pin what the scheduler may use.
	runtime.GOMAXPROCS(2)
	if !inputsCurrent(w) {
		// A child generates: this process's set-up time and peak RSS then
		// hold no generator or oracle work.
		if err := self("gen", "-workload", w.Name); err != nil {
			return fmt.Errorf("gen: %w", err)
		}
	}
	in, err := loadInputs(inputsDir(w))
	if err != nil {
		return err
	}
	in.shuffle(*seed)
	rec, err := runWorkload(w, in, *seed, time.Duration(*seconds)*time.Second, *trace != 0)
	if err != nil {
		return err
	}
	if err := rec.save(*out); err != nil {
		return err
	}
	if err := rec.print(os.Stdout); err != nil {
		return err
	}
	if !rec.correct() {
		os.Exit(1)
	}
	return nil
}

// runWorkload measures one workload on loaded inputs; phase is the length
// of the timed phase.
func runWorkload(w workload, in *inputs, seed int64, phase time.Duration, trace bool) (*record, error) {
	rec := newRecord(w, seed, phase, trace)
	var err error
	switch {
	case trace:
		err = tracedRun(w, in, phase/passesPerRun, rec)
	case w.Serve:
		err = measureServe(w, in, rec)
	default:
		err = measureInproc(w, in, phase/passesPerRun, rec)
	}
	return rec, err
}
