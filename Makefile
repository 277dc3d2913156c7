# Standard entry points; `make check` is the gate CI and contributors run.

GO ?= go

.PHONY: check vet build test race race-builders fmt quality quality-sq8 quality-adaptive bench bench-adaptive bench-concurrency durability shard outofcore linkcheck noasm dataset contract loc

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race: race-builders
	$(GO) test -race ./...

# Build and Compact hash the level-1 groups on up to GOMAXPROCS workers; on
# a two-core runner the default never has more than two in flight, so the
# build, compaction and equivalence tests also run with four.
race-builders:
	GOMAXPROCS=4 $(GO) test -race ./internal/core -count=1 \
		-run 'Build|Compact|Equivalent|MatchesReference|WorkerCount'

fmt:
	gofmt -l -w .

# Durability gate (see docs/durability.md): the out-of-process crash
# harness (SIGKILL a serving child under concurrent writes, restart,
# verify every acked write) plus a bounded fuzz pass over the WAL replay
# path's framing invariants.
durability:
	$(GO) test ./internal/durable ./internal/core -run 'Crash|Durable|WAL|Checkpoint|Atomic' -v -count=1
	$(GO) test ./internal/durable -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s

# Quality-regression gate (see docs/testing.md): runs the full matrix —
# lattice × probe mode × partitioner × index lifecycle — against the
# committed golden thresholds in internal/quality/golden/ and writes the
# deterministic per-cell report. Two consecutive runs produce
# byte-identical BENCH_quality.json.
quality:
	$(GO) run ./cmd/bilsh quality -preset full -out BENCH_quality.json

# Same matrix over the SQ8 quantized row store (scan int8 codes, exact
# re-rank). Checked against the *same* golden thresholds as the float32
# run: quantization must fit inside the existing recall/error slack.
quality-sq8:
	$(GO) run ./cmd/bilsh quality -preset full -quantize sq8 -q

# Same matrix again, but every query runs under a TargetRecall=0.95
# execution plan (docs/adaptive.md): SLO-resolved table budgets must
# keep the committed golden thresholds green.
quality-adaptive:
	$(GO) run ./cmd/bilsh quality -preset full -target-recall 0.95 -q

# Real-dataset pipeline gate (see docs/datasets.md): exercises the
# *vecs file path end to end on the committed sift-micro fixture, fully
# offline — file inspection, a convert subset cut, a persisted Hamming
# build queried back with exact-truth recall, and the file-backed
# quality preset run twice with cmp proving byte-identical reports.
FIXTURE := internal/quality/testdata/sift-micro
dataset:
	$(GO) run ./cmd/bilsh dataset info -in $(FIXTURE)/base.fvecs
	$(GO) run ./cmd/bilsh dataset info -in $(FIXTURE)/truth.ivecs
	tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/bilsh dataset convert -in $(FIXTURE)/base.fvecs -out $$tmp/sub.fvecs -n 256 && \
	$(GO) run ./cmd/bilsh dataset info -in $$tmp/sub.fvecs && \
	$(GO) run ./cmd/bilsh build -data $(FIXTURE)/base.fvecs -out $$tmp/ham.bilsh \
		-metric hamming -bits 128 -probe multi -groups 4 && \
	$(GO) run ./cmd/bilsh query -index $$tmp/ham.bilsh -queries $(FIXTURE)/query.fvecs -k 10 -truth && \
	$(GO) run ./cmd/bilsh quality -preset fvecs -q -out $$tmp/q1.json && \
	$(GO) run ./cmd/bilsh quality -preset fvecs -q -out $$tmp/q2.json && \
	cmp $$tmp/q1.json $$tmp/q2.json && \
	rm -rf $$tmp

# Portable-kernel build: compiles out every assembly body (the same code
# path noasm-tagged builds and unsupported architectures run) and reruns
# the test suite against it.
noasm:
	$(GO) build -tags noasm ./...
	$(GO) test -tags noasm ./internal/vec ./internal/core ./internal/lshtable ./internal/cuckoo ./internal/multiprobe

# Benchmark contract (see bench/README.md, docs/performance.md): a change
# edits the benchmark — BENCHMARK.json or anything under bench/ — or the
# code it measures, never both, so parent and change are always compared
# by identical harness code. Fails when the diff against the merge base
# with BASE (a ref; CI passes the pull request's target branch) mixes the
# two.
BASE ?= origin/main
contract:
	@files=$$(git diff --name-only $$(git merge-base HEAD $(BASE))) || exit 1; \
	bench=$$(printf '%s\n' "$$files" | grep -E '^(BENCHMARK\.json$$|bench/)' || true); \
	other=$$(printf '%s\n' "$$files" | grep -vE '^(BENCHMARK\.json$$|bench/|$$)' || true); \
	if [ -n "$$bench" ] && [ -n "$$other" ]; then \
		echo "contract: the benchmark and the code it measures change together:"; \
		printf '  benchmark: %s\n' $$bench; \
		printf '  other:     %s\n' $$other; \
		exit 1; \
	fi; \
	echo "contract: ok"

# Non-test Go line counts of the query-path packages, the CLI and the
# durability layer, whose simplification items gate on a net-negative
# delta: per package at the merge base with BASE (a ref, as for contract)
# and at HEAD, with the difference. Counts committed trees only.
LOC_PKGS := internal/core internal/lshtable internal/multiprobe internal/wire internal/durable cmd/bilsh
loc:
	@base=$$(git merge-base HEAD $(BASE)) || exit 1; \
	count() { \
		for f in $$(git ls-tree -r --name-only $$1 -- $$2 | grep '\.go$$' | grep -v '_test\.go$$'); do \
			git show "$$1:$$f"; \
		done | wc -l; \
	}; \
	printf '%-22s %7s %7s %7s\n' package base head delta; \
	tb=0; th=0; \
	for p in $(LOC_PKGS); do \
		b=$$(count $$base $$p); h=$$(count HEAD $$p); \
		tb=$$((tb + b)); th=$$((th + h)); \
		printf '%-22s %7d %7d %+7d\n' $$p $$b $$h $$((h - b)); \
	done; \
	printf '%-22s %7d %7d %+7d\n' total $$tb $$th $$((th - tb))

# Sharded-serving benchmark (see docs/sharding.md): builds an in-process
# 4-shard cluster (leaf-aware shard map, id maps, HTTP shard servers +
# router) and a single-node server over the same data, drives identical
# queries through both, and writes q/s, p50/p99 latency, recall and mean
# shard fan-out to BENCH_shard.json.
shard:
	$(GO) run ./cmd/bilsh shard-bench -out BENCH_shard.json

# Out-of-core gate (see docs/outofcore.md): mapped-vs-heap byte
# identity and the ≤2-alloc pin, CRC rejection of damaged files at
# open, the legacy-format converter (bilsh upgrade), the -race
# snapshot-swap stress, bounded fuzz passes over the paged-layout reader
# and the converter, and the resident-set benchmark (heap vs mapped at
# uncapped, 1/4 and 1/16 budgets) into BENCH_outofcore.json — which
# fails unless every mapped side returns results identical to the heap
# baseline. Converter inputs are often new coverage, so its pass gets a
# short minimize time: otherwise shrinking them fills the 30 s.
outofcore:
	$(GO) test ./internal/core -run 'Mapped|DiskLayout|Upgrade|Residency|DurableMmap|DiskIndex' -count=1
	$(GO) test -race ./internal/core -run 'TestMappedSwapUnderLoad|TestDurableMmap' -count=1
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDiskLayout -fuzztime 30s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzUpgrade -fuzztime 30s -fuzzminimizetime 2s
	$(GO) run ./cmd/bilsh outofcore-bench -out BENCH_outofcore.json

# Documentation link check: every relative link and #anchor in every
# markdown file must resolve (internal/doccheck; external URLs are not
# fetched).
linkcheck:
	$(GO) test ./internal/doccheck -run TestRepoDocLinks -count=1

# Hot-path microbenchmarks (see docs/performance.md). Writes the raw
# `go test -json` stream to BENCH_query.json for before/after comparison.
# The BenchmarkSqDistToRows/BenchmarkSqDistToRowsSQ8 sweeps run every
# registered kernel (SIMD and portable) and both row stores (float32 and
# SQ8), so one file holds the kernel-on/off and float-vs-quantized deltas.
# The BenchmarkDot and BenchmarkSqDist prefixes also select
# BenchmarkDotRows (projection kernel, hot and cycled tables) and the
# ...Sparse variants (sorted random candidate lists: what a query scans,
# where the dense sweeps only show the streaming ceiling).
# BenchmarkRingProbesInto and BenchmarkBucketLookupBlock are the two halves
# of a multi-probe gather as a query runs them: ring generation on a reused
# scratch over cycled projections, and a table's 128 probe keys resolved as
# one block against key by key over cycled (cold) tables.
# BenchmarkBuild and BenchmarkCompact are the write side: the two index
# shapes that bracket the repository benchmark's workloads, each at
# GOMAXPROCS 1 and 2, so allocs/op and the scaling with a second core are
# on record without the harness.
bench:
	$(GO) test ./internal/core ./internal/vec ./internal/multiprobe ./internal/lshtable -run '^$$' \
		-bench 'BenchmarkQueryModes|BenchmarkGather|BenchmarkRank|BenchmarkCandidateList|BenchmarkQueryBatchParallel|BenchmarkDot|BenchmarkSqDist|BenchmarkRingProbesInto|BenchmarkBucketLookupBlock|BenchmarkBuild$$|BenchmarkCompact$$' \
		-benchmem -count=1 -json > BENCH_query.json
	@echo "wrote BENCH_query.json"

# Adaptive-plan benchmark (see docs/adaptive.md): fixed-budget vs
# adaptive plan (recall SLO + plateau termination + tuner-style
# max-candidates cap + deeper re-rank) over a heterogeneous SQ8
# workload. Fails unless adaptive p99 is lower at equal-or-better
# measured recall; writes both sides to BENCH_adaptive.json.
bench-adaptive:
	$(GO) run ./cmd/bilsh adaptive-bench -out BENCH_adaptive.json

# Concurrency benchmarks: per-op latency under mixed read/write load on the
# snapshot-based index, the global-RWMutex baseline it replaced, and read
# latency while a background compaction rebuilds beside the reader (see
# docs/performance.md and docs/concurrency.md).
bench-concurrency:
	$(GO) test ./internal/core -run '^$$' \
		-bench 'BenchmarkMixedReadWrite|BenchmarkRWMutexMixedReadWrite|BenchmarkQueryDuringCompact' \
		-benchmem -count=1 -json > BENCH_concurrency.json
	@echo "wrote BENCH_concurrency.json"
