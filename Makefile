# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build lint lint-sarif loc test race short bench bench-smoke bench-diff bench-ab sweep examples ci clean trace-smoke coll-smoke alloc-smoke flake

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# lint runs portalsvet, the repo's own static-analysis suite (docs/LINT.md):
# application-bypass, lock-discipline, lock-order, zero-alloc, atomics-only,
# checked-error, goroutine-lifecycle, guarded-by, mixed-atomic, seqlock,
# ownership-lifetime, and stale-suppression invariants. Every finding fails
# the run; an intentional exception carries `//lint:ignore <check> <reason>`
# at its site. LINTCACHE persists the stdlib importer's export-data index
# across runs (~10x faster warm starts, see docs/LINT.md); set LINTCACHE= to
# force the source importer.
LINTCACHE ?= .portalsvet-cache
LINTFLAGS = $(if $(LINTCACHE),-importer-cache $(LINTCACHE))
lint:
	$(GO) run ./cmd/portalsvet $(LINTFLAGS) ./...

# lint-sarif is the same gate, additionally writing a SARIF 2.1.0 report
# (portalsvet.sarif) for GitHub code scanning or any SARIF viewer; the text
# diagnostics still go to stdout. CI runs exactly this.
lint-sarif:
	$(GO) run ./cmd/portalsvet $(LINTFLAGS) -sarif -o portalsvet.sarif ./...

# loc prints, per package, non-test `wc -l`, code-only (non-blank,
# non-comment) and test lines, plus totals: the one convention for every
# "lines went down" claim in CHANGES.md (scripts/loc.sh). Narrow it with
#   make loc PKGS="./internal/lint ./cmd/portalsvet"
PKGS ?= ./...
loc:
	@bash scripts/loc.sh $(PKGS)

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# bench runs the full suite and leaves a machine-readable summary in
# BENCH_baseline.json (cmd/benchjson) for diffing across changes. BENCHCPUS
# selects the -cpu variants; each result's GOMAXPROCS lands in the summary's
# "cpus" field (names carry the usual "-N" suffix when N > 1). Set
# BENCHLABEL to additionally write the run as BENCH_<label>.json; BENCHMIN
# fails the target when fewer results parse (guards against a typo'd
# pattern or a swallowed build failure producing an empty artifact).
BENCHCPUS ?= 1,4
BENCHMIN ?= 1
BENCHLABEL ?=
bench:
	$(GO) test -bench=. -benchmem -run=NONE -cpu=$(BENCHCPUS) -json . ./internal/obs/trace ./internal/stats ./internal/lint | \
		$(GO) run ./cmd/benchjson -o BENCH_baseline.json -min-results $(BENCHMIN) $(if $(BENCHLABEL),-label $(BENCHLABEL))
	@echo "wrote BENCH_baseline.json"

# bench-smoke is CI's quick variant: one iteration per fast-path benchmark,
# streamed through cmd/benchjson so parse failures or an empty stream fail
# the target — followed by the bench-diff regression gate when a baseline
# artifact exists.
bench-smoke:
	$(GO) test -run=NONE -bench='TranslateExact|Translate|DeliveryLanes|TraceRecord|CountersParallel|SwarmSteady|CollOffload|CTIncrement|PortalsvetLoad' \
		-benchtime=1x -cpu=$(BENCHCPUS) -json . ./internal/obs/trace ./internal/stats ./internal/lint | \
		$(GO) run ./cmd/benchjson -label ci-smoke -min-results 20
	@if [ -f BENCH_baseline.json ]; then $(MAKE) bench-diff; else echo "no BENCH_baseline.json; skipping bench-diff"; fi

# bench-diff fails (exit nonzero) when a benchmark regressed past
# BENCHTHRESHOLD vs the checked-in BENCH_baseline.json. The gated subset
# is the stable ~20-100ns-scale microbenchmarks (match-list translation,
# iovec scatter, counting-event increment — the per-message fast paths
# this repo optimizes) plus PortalsvetLoad, the analyzer's full-repo
# wall time, so a slow check regresses the build like any hot path;
# sub-5ns and multi-ms benchmarks are too noise-prone for a ratio gate.
# -count=3 feeds benchjson three runs per benchmark and Compare takes the
# best of each: scheduler noise is one-sided, so the minimum is the honest
# estimate. Refresh the baseline with `make bench` when hardware changes.
BENCHTHRESHOLD ?= 1.25
bench-diff:
	$(GO) test -run=NONE -bench='TranslateExact|TranslateDepth|IOVecScatter|CTIncrement|PortalsvetLoad' \
		-benchtime=200ms -count=3 -cpu=1 -json . ./internal/lint | \
		$(GO) run ./cmd/benchjson -diff BENCH_baseline.json -threshold $(BENCHTHRESHOLD) -min-results 10

# bench-ab is the same-run A/B of the repository benchmark (BENCHMARK.json):
# BASE is checked out into a throw-away git worktree and the two trees take
# turns — `make bench-ab BASE=HEAD~1 WORKLOAD=bulk256k_simnet [PAIRS=10]`.
# Prints, per end-to-end metric, each side's median and quartiles, the pairs
# the working tree won, and whether the medians differ by more than the
# base's own interquartile spread ("unresolved" where that spread is wider
# than the metric's bound). WORKLOAD=gated runs every workload BENCHMARK.json
# lists, pairs interleaved across workloads — the one command for "nothing
# else moved". See scripts/bench-ab.sh.
PAIRS ?= 10
bench-ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-ab BASE=<ref> WORKLOAD=<name>|gated [PAIRS=10]"; exit 2; }
	bash scripts/bench-ab.sh "$(BASE)" "$(WORKLOAD)" $(PAIRS)

# trace-smoke exercises the observability subsystem end to end: a small
# bypass run with the flight recorder and the metrics registry enabled,
# then artifact validation (cmd/tracecheck). -require-bypass asserts the
# §5.1 claim is visible in the capture: receive-side match/deliver/
# event-post instants inside the application's compute-burn spans.
trace-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/bypass -points 2 -iters 1 -max 2ms \
		-trace $$tmp/trace.json -metrics $$tmp/metrics.prom >/dev/null && \
	$(GO) run ./cmd/tracecheck -require-bypass \
		-trace $$tmp/trace.json -metrics $$tmp/metrics.prom; \
	status=$$?; rm -rf $$tmp; exit $$status

# coll-smoke exercises the triggered-operations subsystem end to end: a
# small offloaded-vs-host collective run with the flight recorder enabled,
# then cmd/tracecheck -require-offload asserting trig-fire instants (the
# chain executing on delivery lanes) land inside compute-burn spans — the
# NIC-offload claim, visible in the artifact.
coll-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/collbench -procs 2,8 -burns 1ms -iters 2 \
		-trace $$tmp/trace.json -metrics $$tmp/metrics.prom >/dev/null && \
	$(GO) run ./cmd/tracecheck -require-offload \
		-trace $$tmp/trace.json -metrics $$tmp/metrics.prom; \
	status=$$?; rm -rf $$tmp; exit $$status

# alloc-smoke runs every testing.AllocsPerRun test — the zero-allocation
# claims of the wire codec, the delivery engine, the lane dispatch, the
# flight recorder, the metrics hot path, the buffer queue, the rtscts+simnet
# byte path, a 256 KiB put placed fragment by fragment into its descriptor,
# the tcp round trip, every way out of a blocking eventq.Poll and the whole
# Portals small-message round trip — three times over at
# GOMAXPROCS=1 and 2: a pooled path that only holds on one P, or only on a
# lucky first run, fails here rather than in a benchmark.
ALLOCPKGS = ./internal/core ./internal/wire ./internal/nicsim ./internal/rtscts ./internal/transport/tcp ./internal/bufpool ./internal/obs/trace ./internal/obs/metrics ./internal/eventq ./portals
alloc-smoke:
	GOMAXPROCS=1 $(GO) test -count=3 -run 'Allocs' $(ALLOCPKGS)
	GOMAXPROCS=2 $(GO) test -count=3 -run 'Allocs' $(ALLOCPKGS)

# flake repeats the tests of the concurrent core COUNT times at one, two and
# eight Ps: a test that needs a lucky schedule, a particular core count or a
# quiet box fails here before it fails in somebody's CI. Of
# internal/experiments it runs TestReceiveOverhead only — the shape test that
# rests on counters and a one-CPU host; TestOffloadHidesCollectiveLatency,
# TestFigure6TestCallsHelpGM and TestFigure6SweepRuns compare wall clocks
# and fail on two cores at eight Ps (ROADMAP gates item), so they join when
# they are converted. All three rounds run even when an earlier one failed,
# so one invocation gives the whole tally.
FLAKEPKGS ?= ./internal/eventq ./internal/core ./internal/nicsim ./internal/transport/... ./internal/rtscts ./portals
COUNT ?= 20
flake:
	@fail=0; for p in 1 2 8; do \
		echo "== GOMAXPROCS=$$p go test -count=$(COUNT)"; \
		GOMAXPROCS=$$p $(GO) test -count=$(COUNT) $(FLAKEPKGS) || fail=1; \
		GOMAXPROCS=$$p $(GO) test -count=$(COUNT) -run TestReceiveOverhead ./internal/experiments || fail=1; \
	done; exit $$fail

# Regenerate every paper experiment (EXPERIMENTS.md records one such run).
sweep:
	$(GO) run ./cmd/sweep

# ci is everything the GitHub Actions workflow runs, for local parity.
ci: build lint test race alloc-smoke flake trace-smoke coll-smoke

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/overlap
	$(GO) run ./examples/halo -n 3 -rows 64 -cols 64 -iters 20
	$(GO) run ./examples/onesided -n 4 -bins 16 -samples 2000
	$(GO) run ./examples/fileio

clean:
	$(GO) clean ./...
