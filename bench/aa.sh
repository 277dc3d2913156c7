#!/usr/bin/env bash
# A/A run: measures the current tree N times (default 6 full sets of the four
# workloads, ~2 min each) and compares it with itself. Odd sets go to side A,
# even sets to side B, which is what a parent-against-change comparison of
# identical code would see; set i runs with --seed i. Fails unless every
# workload x end-to-end metric comes out "ok" and spreads within its bound,
# and rewrites NOISE.md with what it saw.
#
#   bash bench/aa.sh [N]
set -uo pipefail
cd "$(dirname "$0")"
n=${1:-6}
go build -o .build/bench . || exit 1
rm -rf out/aa && mkdir -p out/aa
for i in $(seq 1 "$n"); do
	side=A
	((i % 2 == 0)) && side=B
	.build/bench run -workload all -seed "$i" -out "out/aa/$side" >"out/aa/set$i.log" 2>&1 ||
		{ echo "set $i failed, see bench/out/aa/set$i.log" >&2; exit 1; }
done

status=0
{
	cat <<EOF
# Run-to-run noise of the benchmark

Written by \`bash bench/aa.sh $n\`: $n full sets of one tree ($(git rev-parse --short HEAD 2>/dev/null || echo unknown),
$(go version | cut -d' ' -f3), $(nproc) cores, GOMAXPROCS 2), run back to back, each
workload in a fresh process. Every bound in \`BENCHMARK.json\` has to hold against
these tables; README.md says how each was chosen.

## Half against half

Odd sets are side A, even sets side B: what comparing a parent with an identical
change would report.

EOF
	.build/bench compare out/aa/A out/aa/B || status=1
	cat <<EOF

## Spread over all $n sets

What the driver computes before it accepts the benchmark: the distance between the
first and third quartile of the runs as a share of their median. The aim is a third
of the bound; the limit is the bound.

EOF
	.build/bench spread out/aa/A out/aa/B || status=1
} >NOISE.md
cat NOISE.md
exit $status
