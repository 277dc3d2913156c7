package main

import (
	"fmt"

	"bilsh/internal/core"
	"bilsh/internal/lshfunc"
)

const (
	neighbors   = 10   // the paper's k
	recallFloor = 0.75 // a run whose recall@10 falls below this fails
)

// workload is one set of inputs plus the index configuration that makes a
// chosen layer dominate. Sizes are bounded by the driver's wall-clock cap
// (4 + 22 x workloads runs in 3420 s), not by what the layers can take.
type workload struct {
	Name string
	Why  string

	N, D int // base rows, dimension
	// Queries is the held-out query set: 2000, so a 2 s pass has at least
	// 2000 latency samples and 20 beyond its p99.
	Queries int
	// Inserts is the held-out batch a churn round inserts, queries back
	// and deletes: larger than Memtable, so every round seals.
	Inserts  int
	Memtable int // seal threshold, rows
	Serve    bool
	Opts     core.Options
}

var workloads = []workload{
	{
		Name: "scan-60k-d128",
		Why:  "31 MB of float32 rows and ~1600 candidates per query: exact distances + top-k dominate, so vec kernels, the row store and dedup show and a hashing change must not",
		N:    60000, D: 128, Queries: 2000, Inserts: 1100, Memtable: 1024,
		Opts: core.Options{
			Partitioner: core.PartitionRPTree, Groups: 16, AutoTuneW: true,
			Params:    lshfunc.Params{M: 8, L: 10, W: 1},
			ProbeMode: core.ProbeMulti, Probes: 16,
		},
	},
	{
		Name: "hash-10k-d960",
		Why:  "GIST-like d=960, single probe, L=32 x M=16: 492k multiply-adds of projection against ~200 candidates, so lshfunc.Family.Project dominates - the workload for cheap projections",
		N:    10000, D: 960, Queries: 2000, Inserts: 1100, Memtable: 1024,
		Opts: core.Options{
			Partitioner: core.PartitionRPTree, Groups: 16, AutoTuneW: true,
			Params:    lshfunc.Params{M: 16, L: 32, W: 1},
			ProbeMode: core.ProbeSingle,
		},
	},
	{
		Name: "probe-100k-d32",
		Why:  "E8 lattice, 128 probes x 8 tables over narrow buckets (tune target 0.4) on cache-resident rows: probe generation, bucket lookup and dedup dominate - the workload for the key-stream seam and lean postings",
		N:    100000, D: 32, Queries: 2000, Inserts: 1100, Memtable: 1024,
		Opts: core.Options{
			Partitioner: core.PartitionRPTree, Groups: 16, AutoTuneW: true,
			Lattice: core.LatticeE8, TuneTargetRecall: 0.4,
			Params:    lshfunc.Params{M: 8, L: 8, W: 1},
			ProbeMode: core.ProbeMulti, Probes: 128,
		},
	},
	{
		Name: "serve-mixed-30k-d128",
		Why:  "a real 'bilsh serve -mutable' child over one keep-alive connection, queries beside inserts, deletes and a compaction per pass, SQ8 rows: overlay probing, tombstones, re-rank, JSON and HTTP are in the path here and nowhere else",
		N:    30000, D: 128, Queries: 2000, Inserts: 1100, Memtable: 1024, Serve: true,
		Opts: core.Options{
			Partitioner: core.PartitionRPTree, Groups: 16, AutoTuneW: true,
			Params:    lshfunc.Params{M: 8, L: 10, W: 1},
			ProbeMode: core.ProbeMulti, Probes: 16,
			Quantize: core.QuantizeSQ8,
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// params is the workload's configuration as it goes into the run record.
func (w workload) params() map[string]interface{} {
	o := w.Opts
	probes := 1
	if o.ProbeMode == core.ProbeMulti {
		probes = o.Probes
	}
	return map[string]interface{}{
		"n": w.N, "d": w.D, "queries": w.Queries, "inserts": w.Inserts, "memtable": w.Memtable,
		"k": neighbors, "serve": w.Serve, "groups": o.Groups, "lattice": o.Lattice.String(),
		"M": o.Params.M, "L": o.Params.L, "probe_mode": o.ProbeMode.String(), "probes": probes,
		"tune_target_recall": o.TuneTargetRecall, "quantize": o.Quantize.String(),
	}
}
