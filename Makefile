# Standard entry points; `make check` is the gate CI and contributors run.

GO ?= go

.PHONY: check vet build test race race-builders fmt quality quality-sq8 quality-adaptive bench bench-concurrency durability outofcore linkcheck noasm dataset contract loc

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race: race-builders
	$(GO) test -race ./...

# Build and Compact hash the level-1 groups on up to GOMAXPROCS workers,
# batch queries, ground truth and the short-list engines claim their
# queries the same way (chunk.Claim), the level-1 tree cuts each large
# split into one chunk per worker (chunk.Run), and Build and Compact copy
# the rows into leaf order on every core; on a two-core runner the
# default never has more than two in flight, so the build, compaction,
# batch, equivalence and leaf-order tests, and the chunk, tree, diameter,
# table, knn and short-list packages, also run with four.
race-builders:
	GOMAXPROCS=4 $(GO) test -race ./internal/core -count=1 \
		-run 'Build|Compact|Equivalent|MatchesReference|WorkerCount|QueryBatchParallel|LeafOrder'
	GOMAXPROCS=4 $(GO) test -race ./internal/chunk ./internal/rptree ./internal/diameter ./internal/lshtable \
		./internal/knn ./internal/shortlist -count=1

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
# the tests of every package that reaches the vec kernels against it.
noasm:
	$(GO) build -tags noasm ./...
	$(GO) test -tags noasm ./internal/vec ./internal/core ./internal/lshtable ./internal/cuckoo ./internal/multiprobe \
		./internal/lshfunc ./internal/tuner ./internal/rptree ./internal/diameter

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
LOC_PKGS := internal/core internal/lshtable internal/multiprobe internal/lattice internal/wire internal/durable internal/server internal/router internal/httpx cmd/bilsh
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

# Out-of-core gate (see docs/outofcore.md): mapped-vs-heap byte
# identity (uncapped, and under a resident-set cap of 1/16 of the rows
# section) and the ≤2-alloc pin, CRC rejection of damaged files at open,
# the legacy-format converter (bilsh upgrade), the -race snapshot-swap
# stress, and bounded fuzz passes over the paged-layout reader, the
# converter and the wire-image reader. Converter and wire-image inputs are
# often new coverage, so those passes get a short minimize time:
# otherwise shrinking them fills the 30 s.
outofcore:
	$(GO) test ./internal/core -run 'Mapped|DiskLayout|Upgrade|Residency|DurableMmap|DiskIndex' -count=1
	$(GO) test -race ./internal/core -run 'TestMappedSwapUnderLoad|TestDurableMmap' -count=1
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDiskLayout -fuzztime 30s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzUpgrade -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzReadIndex -fuzztime 30s -fuzzminimizetime 2s

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
# scratch over cycled projections (and on lattice points, where every
# comparison is a tie), and a table's 128 probe keys resolved as one block
# against key by key over cycled (cold) tables. BenchmarkCompress64Block
# is the block's key folding alone: four interleaved chains against one
# key at a time.
# BenchmarkCandidateUnion is the candidate union alone (mark every
# posting, drain once) on the probe and scan workloads' bucket mixes and
# at n = 1M, where the drain reads a 125 KB bitset.
# BenchmarkBuild and BenchmarkCompact are the write side: the index shapes
# of the repository benchmark's workloads, each at GOMAXPROCS 1 and 2, so
# allocs/op and the scaling with a second core are on record without the
# harness. BenchmarkRPTreeBuild is the level-1 tree of the two tree-heavy
# shapes alone, at the same two GOMAXPROCS.
bench:
	$(GO) test ./internal/core ./internal/vec ./internal/multiprobe ./internal/lshtable ./internal/cuckoo ./internal/rptree -run '^$$' \
		-bench 'BenchmarkQueryModes|BenchmarkGather|BenchmarkRank|BenchmarkCandidateList|BenchmarkCandidateUnion|BenchmarkQueryBatchParallel|BenchmarkDot|BenchmarkSqDist|BenchmarkRingProbesInto|BenchmarkBucketLookupBlock|BenchmarkCompress64Block|BenchmarkBuild$$|BenchmarkCompact$$|BenchmarkRPTreeBuild' \
		-benchmem -count=1 -json > BENCH_query.json
	@echo "wrote BENCH_query.json"

# Concurrency benchmarks: per-op latency under mixed read/write load on the
# snapshot-based index, the global-RWMutex baseline it replaced, and read
# latency while a background compaction rebuilds beside the reader (see
# docs/performance.md and docs/concurrency.md).
bench-concurrency:
	$(GO) test ./internal/core -run '^$$' \
		-bench 'BenchmarkMixedReadWrite|BenchmarkRWMutexMixedReadWrite|BenchmarkQueryDuringCompact' \
		-benchmem -count=1 -json > BENCH_concurrency.json
	@echo "wrote BENCH_concurrency.json"
