# Build, test and benchmark entry points. There is one benchmark: the fixed
# suite under bench/ that BENCHMARK.json declares (`make bench-record`,
# `make bench-compare BASE=... CHANGE=...`; method in bench/README.md,
# trajectory in docs/BENCHMARKS.md). The go-test benchmarks that remain at
# the root are guards, not records: bench-sched fences the simulator's
# decision cost, bench-kernels is the kernels' iteration tool, bench-obs and
# bench-compress are opt-in A/Bs the suite does not cover yet.
# docs/history/BENCH_PR1-10.json are history; nothing writes them any more.

GO        ?= go
BENCHTIME ?= 3x
SEEDS     ?= 1,2,3,4,5,6,7,8
FUZZTIME  ?= 10s
# Where bench-record writes; .bench_build/ is the suite's ignored scratch.
RECORD    ?= .bench_build/record-$(shell git rev-parse --short HEAD).json

.PHONY: build test test-bench examples-check loc test-race test-repeat test-serve test-named test-fault-units fuzz-open fuzz-scan fuzz-decode fuzz-kernels vet fmt-check soak soak-rand soak-long test-soak-nondeterminism bench-record bench-compare bench-pairs bench-sched bench-kernels bench-obs bench-compress

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

# The five examples are deterministic simulations; their stdout is checked in
# under examples/testdata/ so a change to the simulated system that moves a
# number a reader would see fails here (~18 s). After an intended change:
# `go run ./examples/NAME > examples/testdata/NAME.txt`, and state the diff.
EXAMPLES = quickstart multitable columnstore orderedagg warehouse
examples-check:
	@for e in $(EXAMPLES); do \
		$(GO) run ./examples/$$e | diff -u examples/testdata/$$e.txt - \
			|| { echo "examples/$$e: stdout differs from examples/testdata/$$e.txt"; exit 1; }; \
	done; echo "examples-check: $(words $(EXAMPLES)) examples match examples/testdata/"

# The line ledger CHANGES.md records per PR: per package directory its
# non-test Go lines and its assembly lines, their totals outside bench/, and
# bench/ (a nested module with its own rules) on its own line. The round's
# target is fewer lines at equal suite numbers, assembly included, so the
# count is printed by a machine, in CI too, not by hand.
LOC_GO  = -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*'
LOC_ASM = -name '*.s' ! -path './.bench_build/*'
loc:
	@printf '%6s %6s\n' go asm
	@for d in $$(find . \( $(LOC_GO) -o $(LOC_ASM) \) ! -path './bench/*' -exec dirname {} \; | sort -u); do \
		printf '%6d %6d %s\n' $$(find $$d -maxdepth 1 $(LOC_GO) | xargs -r cat | wc -l) $$(find $$d -maxdepth 1 $(LOC_ASM) | xargs -r cat | wc -l) $$d; \
	done
	@printf '%6d %6d total outside bench/\n' $$(find . $(LOC_GO) ! -path './bench/*' | xargs -r cat | wc -l) $$(find . $(LOC_ASM) ! -path './bench/*' | xargs -r cat | wc -l)
	@printf '%6d %6d bench/\n' $$(find ./bench $(LOC_GO) | xargs -r cat | wc -l) $$(find ./bench $(LOC_ASM) | xargs -r cat | wc -l)

# The live engine is the repo's first truly concurrent code; its tests (and
# the core arbiter state they drive) must stay race-clean. bufferpool is no
# longer on the live path (the ABM owns its frames) but stays in the list
# while the bench suite's pin_release_ns probe compiles against it. exec and
# compress are here for checkptr (on under -race): it is the machine check on
# the tree's one unsafe conversion, the []int64 <-> []byte part views of
# internal/engine/alias.go that the kernels and decoders read and write.
# The second step runs the engine and the soak at one and at four
# processors: each table has its own lock, and interleavings that two
# processors rarely produce must be raced too.
test-race:
	$(GO) test -race ./internal/engine/... ./internal/bufferpool/... ./internal/core/... ./internal/obs/... ./internal/soak/... ./internal/serve/... ./internal/exec/... ./internal/colstore/compress/...
	$(GO) test -race -cpu 1,4 ./internal/engine/ ./internal/soak/

# Tier-1's concurrent packages twenty times over under the race detector —
# the flake hunt CI runs on a schedule (a failure there is a real ordering
# bug or a test synchronising on a sleep; neither shows in one run).
test-repeat:
	$(GO) test -race -count=20 ./internal/core/... ./internal/engine/... ./internal/serve/...

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
	@$(call must-pass,-race -count=1,./internal/engine/,TestFaultSoak)

# must-pass runs the tests named in $(3), exact top-level names, in package
# $(2) with the go test flags $(1) and the optional arguments $(4) after the
# package (e.g. `-args -soak.seeds=1,2`), prints the -v output, and fails
# unless it shows every named test passing. `go test -run` passes when a
# name matches nothing, so a step that names a test would go green having
# run nothing after a rename or a skip; every target and CI step that names
# tests goes through here (test-named is the form CI calls).
empty :=
space := $(empty) $(empty)
comma := ,
must-pass = log=$$(mktemp); \
	$(GO) test -v $(1) -run '^($(subst $(space),|,$(strip $(3))))$$' $(2) $(4) > $$log 2>&1; st=$$?; \
	cat $$log; \
	for t in $(strip $(3)); do \
		[ $$st -ne 0 ] || grep -q -- "^--- PASS: $$t " $$log || { echo "$$t did not run: the name is stale"; st=1; }; \
	done; \
	rm -f $$log; exit $$st

# The tests TESTS (exact names) in the package TEST_PKG with the go test
# flags TEST_FLAGS, every one of which must pass:
#
#	make test-named TESTS='TestDSMColumnSelectiveIO' TEST_PKG=./internal/engine/ TEST_FLAGS=-count=1
test-named:
	@$(call must-pass,$(TEST_FLAGS),$(TEST_PKG),$(TESTS))

# The fault-domain unit tests CI's fault-soak job runs beside the soak: typed
# on-disk failures (torn headers, damaged metadata, checksum mismatches,
# undecodable extents), transient-fault healing, quarantine, cancellation.
FAULT_UNITS = TestScanSurvivesTransientFaults TestQuarantineIsolatesPersistentFault \
	TestOnDiskCorruptionSurfacesAsChecksum TestScanContextCancellation \
	TestOpenTypedErrors TestCompressedOpenTypedErrors TestMetadataSeal \
	TestReadPageChecksumMismatch TestCompressedCorruptExtent TestCompressedCreateRejectsBadGeometry
test-fault-units:
	@$(call must-pass,-race -count=1,./internal/engine/,$(FAULT_UNITS))

# Fuzz the one opener: header and metadata-region damage, truncation and
# extension over a file of every stored shape; Open answers with a typed
# error or a table every part of which reads or fails as a *PageError (see
# internal/engine/fuzz_test.go). Findings land under
# internal/engine/testdata/fuzz/FuzzOpen and then run as plain tests.
fuzz-open:
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime $(FUZZTIME) ./internal/engine/

# Fuzz the /scan query surface: raw query strings (table, start, end, cols,
# agg, tier, deadline_ms, name) against handleScan on a tiny live engine —
# never a panic, always a typed 4xx JSON body or a well-formed NDJSON stream
# whose receipts equal the streamed reference (internal/serve/fuzz_test.go).
# Findings land under internal/serve/testdata/fuzz/FuzzScanQuery.
fuzz-scan:
	$(GO) test -run '^$$' -fuzz FuzzScanQuery -fuzztime $(FUZZTIME) ./internal/serve/

# Fuzz the codec's decoder against the decoder it replaced
# (internal/colstore/compress/reference_test.go), FUZZTIME each:
# FuzzDecodeDifferential — arbitrary buffers, both fail with ErrCorrupt or
# both return the same values: unsorted and duplicate exception positions,
# codes past the dictionary, truncated tails, dirty and undersized
# destinations — then FuzzCheckThenDecode, the decoder's two halves: Check
# accepts exactly what the decoder and the reference accept, and
# DecodeChecked after it never panics and equals the reference. Findings
# land under internal/colstore/compress/testdata/fuzz/.
fuzz-decode:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDifferential$$' -fuzztime $(FUZZTIME) ./internal/colstore/compress/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckThenDecode$$' -fuzztime $(FUZZTIME) ./internal/colstore/compress/

# Fuzz the two kernels, FUZZTIME each; every kernel target checks both of
# the kernel's bodies, the Go one and, where the CPU has AVX2, the assembly.
# FuzzQ6Kernel: edge-valued columns and an arbitrary predicate, its bounds
# planted in the data, against the scalar reference (internal/exec/
# vector_test.go). FuzzQ6KernelDecided: the kernel given a chunk's bounds
# against the kernel given none and the scalar reference
# (internal/exec/decided_test.go): columns clustered around one predicate, an
# arbitrary second predicate, the columns' true bounds and widened ones —
# whatever the bounds decide (no row can qualify, every row passes the date
# conjunct, nothing), the aggregate is the same. The Q1 kernel against q1Ref
# (internal/exec/vector_test.go): edge-valued columns or measures in the AVX2
# pass's range with a row now and then outside it, more groups than its
# table holds, any dateMax and round count, block-ragged lengths, the true
# bounds and none. Findings land under internal/exec/testdata/fuzz/.
fuzz-kernels:
	$(GO) test -run '^$$' -fuzz '^FuzzQ6Kernel$$' -fuzztime $(FUZZTIME) ./internal/exec/
	$(GO) test -run '^$$' -fuzz '^FuzzQ6KernelDecided$$' -fuzztime $(FUZZTIME) ./internal/exec/
	$(GO) test -run '^$$' -fuzz '^FuzzQ1Kernel$$' -fuzztime $(FUZZTIME) ./internal/exec/

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
	@$(call must-pass,-race -count=1,./internal/soak/,TestSoakRand,-args -soak.seeds=$(SEEDS))

# The long run: the same soak over seeds 1-500, about a second per seed on
# two vCPUs, so past go test's default ten-minute timeout. A failure that
# eight seeds miss, one seed in a hundred, shows here; CI runs it nightly.
# Replay a failing seed with `make soak-rand SEEDS=<seed>`.
soak-long:
	@$(call must-pass,-race -count=1 -timeout 60m,./internal/soak/,TestSoakRand,-args -soak.seeds=$$(seq -s$(comma) 1 500))

# Determinism is asserted, not claimed: every seed's core-layer soak runs
# twice and the two event digests (every proposal, veto, landing, pick,
# eviction and grant, in order) must be equal.
test-soak-nondeterminism:
	@$(call must-pass,-count=1,./internal/soak/,TestSoakCoreDeterministic,-args -soak.seeds=$(SEEDS))

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

# The suite: 5 untraced + 1 traced run per workload, written as one record.
bench-record:
	bash bench/run.sh record -out $(RECORD)

# Per (workload, metric) verdicts between two records:
#
#	make bench-compare BASE=bench/baseline/9d347f9.json CHANGE=.bench_build/record-abc1234.json
bench-compare:
	bash bench/run.sh compare $(BASE) $(CHANGE)

# Paired runs, the method a claimed gain rests on: one untraced run of
# WORKLOAD per seed on each of two checkouts, each built from its own source,
# alternating which goes first; prints every run, then median, quartiles and
# wins per end-to-end metric, and fails on a wrong answer or a failed scan
# (tools/bench-pairs.sh). PARENT is a second checkout of the parent commit
# (`git clone`, not a worktree); ten pairs at the suite's window by default:
#
#	make bench-pairs PARENT=/root/scratch/parent WORKLOAD=serve-dsmz
#	make bench-pairs PARENT=../parent WORKLOAD=nsm-io PAIR_SECONDS=8 PAIR_SEEDS="1 2 3 4"
#
# Without PAIR_SECONDS the window is the parent's run_seconds, spelled out:
# the script takes its first argument after WORKLOAD as the window, so an
# empty PAIR_SECONDS would turn the first of PAIR_SEEDS into one.
PAIR_CHANGE ?= .
bench-pairs:
	bash tools/bench-pairs.sh $(PARENT) $(PAIR_CHANGE) $(WORKLOAD) $(or $(PAIR_SECONDS),$$(jq -r .run_seconds $(PARENT)/BENCHMARK.json)) $(PAIR_SEEDS)

# Scheduler decision-cost fence (simulator side): TestSchedScalingGuardOptIn
# compares the q512/q64 per-decision ratio measured in one process against
# the flat PR-4 baseline, so a reintroduced linear walk fails it; the sweep
# prints sched-ns/decision from 64 to 8192 queries and across chunk counts
# for a human to read. The guard is a wall-clock number and has failed under
# load with nothing wrong, so plain `go test ./...` skips it: this target is
# the only place it runs (COOPSCAN_SCHED_GUARD=1, the bench-obs idiom).
bench-sched: export COOPSCAN_SCHED_GUARD = 1
bench-sched:
	@$(call must-pass,-count=1,.,TestSchedScalingGuardOptIn)
	$(GO) test -run '^$$' -bench BenchmarkSchedulerScaling -benchmem -benchtime $(BENCHTIME) .

# Kernel micro-benchmarks, for iterating in seconds without the 20 s suite;
# not a record. internal/exec/kernel_bench_test.go: Q6Kernel and Q1Kernel over
# 16 384 rows handed over with their true bounds, in ns/tuple. clustered and
# shuffled are a whole seven-year table in one chunk, so the bounds decide
# nothing and every vector runs the date pass (clustered: most qualify no date
# and stop there; shuffled: every vector runs every pass). disjoint, inside
# and edge are chunks of a date-ordered 48-chunk table as the engine meets
# them: outside the predicate's dates (no column read — tens of ns per chunk),
# inside them (no date pass), and across their upper end (most of inside's
# work plus the date pass); Q1's SLOW scans on dsmz-cpu meet inside and edge.
# Each shape runs on both of the kernel's bodies in turn (inside/go, then
# inside/avx2 where the CPU has AVX2), so one run compares them;
# BenchmarkQ1ArithRounds is Q1's price arithmetic and rounds alone over one
# 128-row block of generator-like rows, eight rounds, on each body, in ns/row.
# internal/colstore/compress/lineitem_bench_test.go: decode and encode of one
# 16 384-value stripe of each stored lineitem column under the scheme the
# table writer picks for it, in ns/value, and DecodeChecked alone, what a
# part's first reader pays after the load's Check.
bench-kernels:
	$(GO) test -run '^$$' -bench 'Benchmark(Q6Kernel|Q1Kernel|Q1ArithRounds)' -benchmem -benchtime $(BENCHTIME) ./internal/exec/
	$(GO) test -run '^$$' -bench 'Benchmark(Decode|Encode)Lineitem' -benchmem -benchtime $(BENCHTIME) ./internal/colstore/compress/

# Observability overhead guard: the `coopscan multi -read-mbps 200`
# workload run dark vs fully instrumented (metrics registry + pprof scan
# labels + tracer to io.Discard), shared files and plans, plus the
# enforcement test TestObsOverheadAB — interleaved off/on rounds with
# alternating order, medians compared, fail at >=2% overhead. The A/B needs
# an otherwise idle machine to mean anything, hence its own target.
bench-obs:
	COOPSCAN_OBS_AB=1 $(GO) test -run 'TestObsOverheadAB' -count=1 -v -bench 'BenchmarkObsOverhead' -benchmem -benchtime $(BENCHTIME) .

# Compressed-extent storage A/B: the Q6-only live workload over a raw DSM
# file (every column identity), its compressed twin (the same format, the
# columns under their sampled schemes), and the compressed file with Q6
# zonemap predicates registered — all under a 64 MiB/s modelled device, where
# stored bytes are the scarce resource. Acceptance: compressed disk-MiB/op
# <= 0.5 x raw (measured ~0.13), and the pruned variant skips >= 60% of
# registered chunks with unchanged aggregates (see compress_bench_test.go).
# It is the only guard on compressed storage behind a scarce device until
# the suite grows a workload for that regime.
bench-compress:
	$(GO) test -run '^$$' -bench BenchmarkLiveCompressedIO -benchmem -benchtime $(BENCHTIME) .
