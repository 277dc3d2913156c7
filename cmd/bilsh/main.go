// Command bilsh is the command-line front end of the Bi-level LSH
// reproduction: dataset generation, index construction and querying, and
// the figure-by-figure experiment harness of the paper's evaluation.
//
// Usage:
//
//	bilsh gen    -n 10000 -d 64 -out data.fvecs [-queries q.fvecs -nq 1000]
//	bilsh search -data data.fvecs -queries q.fvecs -k 10 [-bilevel] [-lattice E8]
//	bilsh exp    -fig fig5|fig6|...|fig13c|fig4|rp-rule|tuner-ablation|all
//	             [-scale tiny|default] [-n N -queries Q -d D -k K -reps R]
//	bilsh bench  -- alias for "exp -fig all"
//	bilsh quality [-preset full|small] [-out BENCH_quality.json]
//	bilsh upgrade -in OLD [-out NEW] | -data-dir DIR
//
// Serving commands read only the current formats; upgrade converts an
// index file or a data directory's checkpoint written in an older one.
//
// Every command is deterministic under -seed.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "dataset":
		err = cmdDataset(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "groundtruth":
		err = cmdGroundTruth(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "upgrade":
		err = cmdUpgrade(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "shard-split":
		err = cmdShardSplit(os.Args[2:])
	case "shard-serve":
		err = cmdShardServe(os.Args[2:])
	case "router":
		err = cmdRouter(os.Args[2:])
	case "shard-bench":
		err = cmdShardBench(os.Args[2:])
	case "adaptive-bench":
		err = cmdAdaptiveBench(os.Args[2:])
	case "outofcore-bench":
		err = cmdOutOfCoreBench(os.Args[2:])
	case "exp":
		err = cmdExp(os.Args[2:])
	case "quality":
		err = cmdQuality(os.Args[2:])
	case "bench":
		err = cmdExp(append([]string{"-fig", "all"}, os.Args[2:]...))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "bilsh: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bilsh:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `bilsh - Bi-level LSH for k-nearest neighbor computation (ICDE 2012 reproduction)

commands:
  gen          generate a synthetic clustered-manifold dataset (fvecs)
  dataset      fetch TexMex benchmark sets, convert between *vecs formats, inspect files
  build        build an index over an fvecs file and persist it
  query        load a persisted index and answer queries (parallel)
  search       one-shot build + query + quality report
  groundtruth  compute exact k-NN id lists (ivecs)
  info         describe a persisted index
  upgrade      convert an index file or a data dir's checkpoint from an older format to the current one
  serve        expose an index over an HTTP JSON API (-data-dir for WAL-backed durability)
  shard-split  cut a built index into per-shard datasets and a shard map (docs/sharding.md)
  shard-serve  serve one shard of a cluster (serve + shard id, id map, replica bring-up)
  router       scatter-gather front end over running shards (leaf-aware routing, hedging)
  shard-bench  in-process cluster vs single-node benchmark -> BENCH_shard.json
  adaptive-bench  adaptive plan vs fixed-budget benchmark -> BENCH_adaptive.json
  outofcore-bench  mapped vs heap q/s at capped resident set -> BENCH_outofcore.json
  exp          run a paper experiment and print its table (-fig fig4..fig13c, all)
  bench        run every experiment (alias for exp -fig all)
  quality      run the deterministic quality-regression matrix against golden thresholds

run "bilsh <command> -h" for the command's flags
`)
}

// newFlagSet builds a flag set that prints its own usage on error.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}
