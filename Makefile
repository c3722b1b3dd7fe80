# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build lint lint-sarif loc test race short bench-smoke bench-ab sched-profile sweep examples ci clean trace-smoke coll-smoke alloc-smoke flake

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# lint runs portalsvet, the repo's own static-analysis suite (docs/LINT.md):
# application-bypass, lock-discipline, lock-order, checked-error and
# guarded-by (atomics-only counters included) invariants, and
# stale-suppression. (That every pooled buffer, RCU pin and arena entry
# comes back, and that every goroutine a test starts has ended, is checked
# by the tests: each test binary of a package that pools exits through
# internal/bufpool/pooltest.) Every finding fails the run; an intentional
# exception carries `//lint:ignore <check> <reason>` at its site.
lint:
	$(GO) run ./cmd/portalsvet ./...

# lint-sarif is the same gate, additionally writing a SARIF 2.1.0 report
# (portalsvet.sarif) for GitHub code scanning or any SARIF viewer; the text
# diagnostics still go to stdout. CI runs exactly this.
lint-sarif:
	$(GO) run ./cmd/portalsvet -sarif -o portalsvet.sarif ./...

# loc prints, per package, non-test `wc -l`, code-only (non-blank,
# non-comment) and test lines, plus totals: the one convention for every
# "lines went down" claim in CHANGES.md (scripts/loc.sh). Narrow it with
#   make loc PKGS="./internal/lint ./cmd/portalsvet"
loc:
	@bash scripts/loc.sh $(PKGS)

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# bench-smoke compiles and runs every benchmark in the tree once, at one and
# at four Ps (the serial engine and the multi-lane dispatch): a benchmark that
# no longer builds, or fails, fails here without paying for a measurement.
# No pattern to mistype and no pipe to swallow the exit code; CI calls this
# target.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -cpu=1,4 ./...

# bench-ab is the one way to compare performance: a same-run A/B of the
# working tree against BASE, which is checked out into a throw-away git
# worktree (or is a directory holding a checkout; `.` gives an A/A run), the
# two trees taking turns for PAIRS pairs. What is compared is either
#   WORKLOAD=<name>|gated   the repository benchmark (BENCHMARK.json); gated
#                           runs every workload it lists, pairs interleaved
#                           across workloads — "nothing else moved";
#   BENCH=<regexp>          the Go microbenchmarks the regexp selects in PKGS
#                           (default `.`, bench_test.go), each tree's test
#                           binaries built once with `go test -c`.
# TRACE=1 with a WORKLOAD runs the same pairs with `--trace 1` and compares
# the per-layer metrics instead (no bounds: "moved" / "not moved" against the
# base's spread) — where a difference sits, once the untraced run has shown
# there is one.
# Either way one reporter (scripts/bench-ab-report.awk) prints, per metric or
# benchmark, each side's median and quartiles, the pairs the working tree
# won, and whether the medians differ by more than the base's own
# interquartile spread ("unresolved" where that spread is wider than the
# bound). See scripts/bench-ab.sh.
PAIRS ?= 10
bench-ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)$(BENCH)" || { echo "usage: make bench-ab BASE=<ref> WORKLOAD=<name>|gated [PAIRS=10] [TRACE=1]"; echo "       make bench-ab BASE=<ref> BENCH=<regexp> [PKGS=\"./pkg ...\"] [PAIRS=10]"; exit 2; }
	TRACE=$(TRACE) bash scripts/bench-ab.sh "$(BASE)" "$(if $(BENCH),bench=$(BENCH),$(WORKLOAD))" $(PAIRS) $(if $(BENCH),$(PKGS))

# sched-profile answers "who waited for a P, and who woke them": it runs the
# benchmarks BENCH selects in one package (PKGS, default `.`) once under the
# execution tracer and prints the top of the trace's scheduler-latency
# profile (`go tool trace -pprof=sched`). That profile adds up the time
# goroutines sat runnable before they ran, by the stack that made them
# runnable: the waker's call chain (a goroutine's own, where it yielded), so a
# frame's cumulative time is the delay of the goroutines that call woke. BENCHTIME (default 1s) is go test's
# -benchtime; a fixed count (say 20000x) makes the totals of two trees
# comparable.
#   make sched-profile BENCH=PlacedBulk256K PKGS=./internal/rtscts
# The trace, the profile and the test binary go to a throw-away directory.
BENCHTIME ?= 1s
sched-profile:
	@test -n "$(BENCH)" || { echo "usage: make sched-profile BENCH=<regexp> [PKGS=<pkg>] [BENCHTIME=1s]"; exit 2; }
	@tmp=$$(mktemp -d) && \
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -trace $$tmp/trace.out -o $$tmp/pkg.test $(or $(PKGS),.) && \
	$(GO) tool trace -pprof=sched $$tmp/trace.out > $$tmp/sched.pprof && \
	$(GO) tool pprof -top -cum -nodecount=25 $$tmp/sched.pprof; \
	status=$$?; rm -rf $$tmp; exit $$status

# trace-smoke exercises the observability subsystem end to end: a small
# `sweep bypass` run with the flight recorder and the metrics registry
# enabled, then artifact validation (cmd/tracecheck). -require-bypass asserts
# the §5.1 claim is visible in the capture: receive-side match/deliver/
# event-post instants inside the application's compute-burn spans.
trace-smoke: CAPTURE = bypass -points 2 -iters 1 -max 2ms
trace-smoke: REQUIRE = -require-bypass

# coll-smoke exercises the triggered-operations subsystem end to end: a
# small offloaded-vs-host `sweep collbench` run with the flight recorder
# enabled, then cmd/tracecheck -require-offload asserting trig-fire instants
# (the chain executing on delivery lanes) land inside compute-burn spans —
# the NIC-offload claim, visible in the artifact.
coll-smoke: CAPTURE = collbench -procs 2,8 -burns 1ms -iters 2
coll-smoke: REQUIRE = -require-offload

# Both build sweep and tracecheck once each into the target's temp dir.
trace-smoke coll-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/ ./cmd/sweep ./cmd/tracecheck && \
	$$tmp/sweep $(CAPTURE) -trace $$tmp/trace.json -metrics $$tmp/metrics.prom >/dev/null && \
	$$tmp/tracecheck $(REQUIRE) -trace $$tmp/trace.json -metrics $$tmp/metrics.prom; \
	status=$$?; rm -rf $$tmp; exit $$status

# alloc-smoke runs every testing.AllocsPerRun test. These tests are the
# zero-allocation contract: a path is claimed allocation-free only where one
# of them runs it (docs/LINT.md names the test for each former noalloc root).
# They cover the wire codec, the delivery engine, the lane dispatch, the
# flight recorder, the metrics hot path, the buffer queue, a packet by
# reference through a simnet link, the rtscts+simnet byte path, a 256 KiB put
# placed fragment by fragment into its descriptor, the tcp round trip, every
# way out of a blocking eventq.Poll, and the whole Portals round trip: a
# small put, a get and its reply, a put into an accumulate descriptor, and a
# put fired by a triggered operation on the delivery lane. Each runs three
# times over at GOMAXPROCS=1 and 2: a pooled path that only holds on one P,
# or only on a lucky first run, fails here rather than in a benchmark.
ALLOCPKGS = ./internal/core ./internal/wire ./internal/nicsim ./internal/rtscts ./internal/transport/simnet ./internal/transport/tcp ./internal/bufpool ./internal/obs/trace ./internal/obs/metrics ./internal/eventq ./portals
alloc-smoke:
	GOMAXPROCS=1 $(GO) test -count=3 -run 'Allocs' $(ALLOCPKGS)
	GOMAXPROCS=2 $(GO) test -count=3 -run 'Allocs' $(ALLOCPKGS)

# flake repeats the tests of the concurrent core COUNT times at one, two and
# eight Ps: a test that needs a lucky schedule, a particular core count or a
# quiet box fails here before it fails in somebody's CI. Of
# internal/experiments it runs the shape tests that rest on logical evidence —
# TestReceiveOverhead (counters, a one-CPU host) and
# TestOffloadHidesCollectiveLatency (trace order); TestFigure6TestCallsHelpGM
# and TestFigure6SweepRuns compare wall clocks of 16-process runs (ROADMAP
# clock item), so they join when they are converted. All three rounds run even
# when an earlier one failed, so one invocation gives the whole tally.
# RUN=<regexp> repeats only the tests of FLAKEPKGS it matches, e.g.
#   make flake RUN=TestTeardownRacesLandingFragments COUNT=600
FLAKEPKGS ?= ./internal/eventq ./internal/core ./internal/nicsim ./internal/transport/... ./internal/rtscts ./internal/mpi ./internal/obs/trace ./portals
COUNT ?= 20
flake:
	@fail=0; for p in 1 2 8; do \
		echo "== GOMAXPROCS=$$p go test -count=$(COUNT) $(if $(RUN),-run '$(RUN)')"; \
		GOMAXPROCS=$$p $(GO) test -count=$(COUNT) $(if $(RUN),-run '$(RUN)') $(FLAKEPKGS) || fail=1; \
		$(if $(RUN),,GOMAXPROCS=$$p $(GO) test -count=$(COUNT) -run 'TestReceiveOverhead|TestOffloadHides' ./internal/experiments || fail=1;) \
	done; exit $$fail

# Regenerate every paper experiment (EXPERIMENTS.md records one such run).
sweep:
	$(GO) run ./cmd/sweep

# ci is everything the GitHub Actions workflow runs, for local parity.
ci: build lint test race alloc-smoke flake bench-smoke trace-smoke coll-smoke

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/overlap
	$(GO) run ./examples/halo -n 3 -rows 64 -cols 64 -iters 20
	$(GO) run ./examples/onesided -n 4 -bins 16 -samples 2000
	$(GO) run ./examples/fileio

clean:
	$(GO) clean ./...
