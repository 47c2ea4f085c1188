# Build, test and benchmark entry points. `make bench-json` writes the
# benchmark record of the current PR to BENCH_PR<n>.json so the perf
# trajectory is tracked in-repo from PR 1 onward; since PR 2 the record
# includes BenchmarkLiveEngine — the first real (non-simulated) numbers —
# PR 3 adds BenchmarkMultiTableLive (shared-budget multi-table server,
# `make bench-multi` → BENCH_PR3.json), PR 4 adds the scheduler
# scaling sweeps (sim 64..512 queries + chunk sweep, live 64/256 streams,
# `make bench-sched` → BENCH_PR4.json), PR 5 adds the DSM live
# tables comparison (`make bench-dsm` → BENCH_PR5.json: BenchmarkLiveEngine
# nsm/dsm × policy, plus the Q6-only BenchmarkLiveColumnIO bytes-read
# pair whose dsm/nsm ratio must stay ≤ 0.45), and PR 6 re-runs the same
# DSM pair fault-free after the checksummed-page/fault-domain changes
# (`make bench-fault` → BENCH_PR6.json; overhead vs BENCH_PR5.json must
# stay < 5%), and PR 7 adds the observability on/off A/B
# (`make bench-obs` → BENCH_PR7.json; instrumented median must stay
# within 2% of dark), and PR 8 pushes the scheduler sweeps an order of
# magnitude further (sim 4096/8192 queries, live 512/2048/4096 streams,
# `make bench-scale` → BENCH_PR8.json; sched-ns/decision must stay within
# 1.5× from 512 to 4096 live streams) guarded by the randomized multi-seed
# soak harness (`make soak-rand SEEDS=...`), and PR 10 adds the compressed
# v4 storage A/B (`make bench-compress` → BENCH_PR10.json: Q6-only raw vs
# compressed vs compressed+zonemap-pruned under a 64 MiB/s device model;
# compressed disk-MiB/op must stay ≤ 0.5× raw and the pruned variant must
# skip ≥ 60% of registered chunks). See docs/BENCHMARKS.md for the
# trajectory and repro commands.

GO        ?= go
BENCHTIME ?= 3x
BENCH_OUT ?= BENCH_PR8.json
SEEDS     ?= 1,2,3,4,5,6,7,8

.PHONY: build test test-bench test-race test-serve vet fmt-check soak soak-rand bench bench-live bench-multi bench-sched bench-dsm bench-fault bench-obs bench-scale bench-compress bench-json

build:
	$(GO) build ./...

test: build test-bench
	$(GO) test ./...

# bench/ is a nested module (BENCHMARK.json's benchmark) that imports
# coopscan/internal/...; the root `go build ./... && go test ./...` does not
# see it, so a rename under internal/ would break it silently without this.
test-bench:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The live engine is the repo's first truly concurrent code; its tests (and
# the core arbiter state they drive) must stay race-clean. bufferpool is no
# longer on the live path (the ABM owns its frames) but stays in the list
# while the bench suite's pin_release_ns probe compiles against it.
test-race:
	$(GO) test -race ./internal/engine/... ./internal/bufferpool/... ./internal/core/... ./internal/obs/... ./internal/soak/... ./internal/serve/...

# The HTTP/2 serving front-end (PR 9, internal/serve) under the race
# detector: exact-bounded overload admission, the 1000-client disconnect
# storm with its goroutine-baseline check, queued/mid-scan deadline expiry,
# graceful drain, admin attach/detach, the metrics exposition golden, and
# the serve-level randomized soak (see docs/SERVING.md).
test-serve:
	$(GO) test -race -count=1 -v ./internal/serve/
	$(GO) test -race -count=1 -run 'TestSoakRand/serve' -v ./internal/soak/

vet:
	$(GO) vet ./...

# Multi-seed fault soak under the race detector: both storage formats, two
# tables under one budget, ≥100 injected faults per seed (transient EIO,
# short reads, silent corruption, latency spikes, one persistent bad range),
# with mid-flight buffer-accounting audits. Every non-quarantined stream
# must stay byte-identical to its fault-free golden and the server must
# drain with zero budget leak (see internal/engine/fault_test.go).
soak:
	$(GO) test -race -count=1 -run 'TestFaultSoak' -v ./internal/engine/

# Randomized multi-seed soak (the PR-8 harness, internal/soak): per seed a
# core-layer driver runs thousands of seeded register/scan/cancel/detach/
# attach operations over mixed NSM+DSM layouts with incremental-vs-linear
# audits at a fixed cadence, and an engine-layer driver runs real servers
# under iofault injection with concurrent + cancelled streams, golden
# verification and a drained-state leak audit. The policy rotates with the
# seed. Override the seed list to replay a failure:
#
#	make soak-rand SEEDS=12345
soak-rand:
	$(GO) test -race -count=1 -run 'TestSoakRand' -v ./internal/soak/ -args -soak.seeds=$(SEEDS)

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) .

# End-to-end live engine comparison (all four policies over a real table
# file on $$TMPDIR; see live_bench_test.go).
bench-live:
	$(GO) test -run '^$$' -bench BenchmarkLiveEngine -benchmem -benchtime $(BENCHTIME) .

# Multi-table live server: every policy × in-flight depth {1,4} over two
# real table files sharing one arbitrated buffer budget; the JSON record is
# the PR 3 perf artifact (see multi_bench_test.go).
bench-multi:
	$(GO) test -run '^$$' -bench BenchmarkMultiTableLive -benchmem -benchtime $(BENCHTIME) -json . > BENCH_PR3.json

# Scheduler decision-cost sweeps (the PR 4 perf artifact): the simulator's
# BenchmarkSchedulerScaling at 64/256/512 queries plus chunk-count sweep,
# and the live multi-table server at 64/256 streams with MeasureScheduling
# on. The JSON record is BENCH_PR4.json; the sched-ns/decision metric must
# stay flat (or logarithmic) as concurrency grows.
bench-sched:
	$(GO) test -run '^$$' -bench 'BenchmarkSchedulerScaling|BenchmarkLiveSchedulerScaling' -benchmem -benchtime $(BENCHTIME) -json . > BENCH_PR4.json

# DSM live tables (the PR 5 perf artifact): the full live workload over
# NSM and DSM files for every policy, plus the Q6-only column-I/O pair.
# Acceptance: BenchmarkLiveColumnIO dsm MiB-read/op ≤ 0.45 × nsm, and
# relevance still beats normal on the dsm wall-clock totals.
bench-dsm:
	$(GO) test -run '^$$' -bench 'BenchmarkLiveEngine|BenchmarkLiveColumnIO' -benchmem -benchtime $(BENCHTIME) -json . > BENCH_PR5.json

# Fault-tolerance overhead guard (the PR 6 perf artifact): the identical
# bench set as bench-dsm, re-run fault-free after per-page CRC32-C checksums
# and the per-load fault domain landed on the read path. Acceptance: within
# 5% of the PR-5 numbers on an interleaved same-machine A/B (run-to-run
# noise on a shared box exceeds 5%; see docs/BENCHMARKS.md) — verification
# is one hardware-accelerated CRC pass per loaded page, retries cost
# nothing when nothing fails.
bench-fault:
	$(GO) test -run '^$$' -bench 'BenchmarkLiveEngine|BenchmarkLiveColumnIO' -benchmem -benchtime $(BENCHTIME) -json . > BENCH_PR6.json

# Observability overhead guard (the PR 7 perf artifact): the heaviest
# multi-table bench run dark vs fully instrumented (metrics registry +
# pprof scan labels + tracer to io.Discard), shared files and plans, plus
# the enforcement test TestObsOverheadAB — interleaved off/on rounds with
# alternating order, medians compared, fail at ≥2% overhead. The A/B needs
# an otherwise idle machine to mean anything, hence its own target.
bench-obs:
	COOPSCAN_OBS_AB=1 $(GO) test -run 'TestObsOverheadAB' -count=1 -v -bench 'BenchmarkObsOverhead' -benchmem -benchtime $(BENCHTIME) -json . > BENCH_PR7.json

# 10k-stream scheduler scale (the PR 8 perf artifact): the simulator sweep
# extended to 4096/8192 queries and the live server pushed to 512/2048/4096
# concurrent scan goroutines with short per-stream ranges (see
# live_sched_bench_test.go). Acceptance: sched-ns/decision within 1.5× from
# streams512 to streams4096 — the registration batch, per-stream wakeup
# conds, per-query availability heaps and incremental victim heap remove
# every per-decision linear walk, so decision cost no longer grows with the
# stream count.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkSchedulerScaling|BenchmarkLiveSchedulerScale' -benchmem -benchtime $(BENCHTIME) -json . > BENCH_PR8.json

# Compressed-extent storage A/B (the PR 10 perf artifact): the Q6-only
# live workload over a raw DSM file, its compressed (v4) twin, and the
# compressed file with Q6 zonemap predicates registered — all under a
# 64 MiB/s modelled device, where stored bytes are the scarce resource.
# Acceptance: compressed disk-MiB/op ≤ 0.5 × raw (measured ~0.13 — the Q6
# projection compresses harder than the table average), decoded-MiB/op
# comparable between raw and compressed (same fixed-width pool pages), and
# the pruned variant skips ≥ 60% of registered chunks with unchanged
# aggregates (see compress_bench_test.go).
bench-compress:
	$(GO) test -run '^$$' -bench BenchmarkLiveCompressedIO -benchmem -benchtime $(BENCHTIME) -json . > BENCH_PR10.json

bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -json . > $(BENCH_OUT)
