#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the harness from the checkout's source and runs one workload. The Go
# build cache lives under bench/.build, so nothing is read or written outside
# the checkout, and no module is ever fetched.
set -euo pipefail
cd "$(dirname "$0")"
export GOCACHE="$PWD/.build/gocache" GOPROXY=off GOTOOLCHAIN=local GOMAXPROCS=2
go build -o .build/bench .
exec .build/bench run "$@"
