package experiments

import (
	"math/bits"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/mpi"
	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
	"repro/internal/rtscts"
	"repro/internal/transport/simnet"
	"repro/portals"
)

// newMachine builds a machine over fab whose teardown is checked when the
// test ends (portals.Machine.CheckTeardown): no RCU pin open, no put body
// still lent, no arena entry the tables no longer reach.
func newMachine(t testing.TB, fab portals.Fabric) *portals.Machine {
	t.Helper()
	m := portals.NewMachine(fab)
	t.Cleanup(func() {
		if err := m.CheckTeardown(); err != nil {
			t.Error(err)
		}
	})
	return m
}

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

// fastBypassConfig keeps unit-test runtime low while preserving the
// architectural contrast: a paced fabric slow enough that message
// handling takes a measurable few milliseconds.
func fastBypassConfig() BypassConfig {
	return BypassConfig{
		Batch:   4,
		MsgSize: 50 * 1024,
		Iters:   2,
		Net:     simnet.Config{Latency: 20 * time.Microsecond, Bandwidth: 100e6, MTU: 4096},
		Rel:     rtscts.Config{RTO: 20 * time.Millisecond},
	}
}

// The headline result as a unit test: with a work interval comfortably
// larger than the message-handling time, MPI/Portals has nearly nothing
// left to wait for, while MPI/GM still has (almost) everything.
func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment skipped in -short")
	}
	cfg := fastBypassConfig()
	const work = 30 * time.Millisecond

	gm, err := RunBypass(StackGM, work, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := RunBypass(StackPortals, work, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("work=%v  wait(GM)=%v  wait(Portals)=%v", work, gm.WaitTime, pt.WaitTime)
	if pt.WaitTime*2 >= gm.WaitTime {
		t.Errorf("application bypass not visible: portals wait %v vs gm wait %v", pt.WaitTime, gm.WaitTime)
	}
}

// With zero work both stacks must do the full handling in the wait — the
// curves of Figure 6 start at roughly the same point.
func TestFigure6ZeroWorkComparable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment skipped in -short")
	}
	cfg := fastBypassConfig()
	gm, err := RunBypass(StackGM, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := RunBypass(StackPortals, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("work=0  wait(GM)=%v  wait(Portals)=%v", gm.WaitTime, pt.WaitTime)
	if gm.WaitTime == 0 || pt.WaitTime == 0 {
		t.Error("zero-work wait times should both be nonzero")
	}
}

// The §5.3 variant: test calls during the work interval let MPI/GM catch
// up substantially.
func TestFigure6TestCallsHelpGM(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment skipped in -short")
	}
	cfg := fastBypassConfig()
	const work = 30 * time.Millisecond
	flat, err := RunBypass(StackGM, work, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TestCalls = 3
	helped, err := RunBypass(StackGM, work, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("work=%v  wait(GM)=%v  wait(GM+3 tests)=%v", work, flat.WaitTime, helped.WaitTime)
	if helped.WaitTime*2 >= flat.WaitTime {
		t.Errorf("test calls did not help GM: %v vs %v", helped.WaitTime, flat.WaitTime)
	}
}

func TestPingPongLoopback(t *testing.T) {
	lat, err := PingPong(portals.Loopback(), PingPongConfig{Size: 0, Iters: 50})
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Errorf("latency = %v", lat)
	}
	t.Logf("0-byte half-RTT over loopback: %v", lat)
}

func TestPingPongSimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment skipped in -short")
	}
	lat, err := PingPong(portals.Myrinet(), PingPongConfig{Size: 0, Iters: 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("0-byte half-RTT over simulated Myrinet: %v", lat)
	if lat <= 0 {
		t.Errorf("latency = %v", lat)
	}
}

func TestBandwidth(t *testing.T) {
	pt, err := Bandwidth(portals.Loopback(), 64*1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MBps <= 0 {
		t.Errorf("bandwidth = %v", pt.MBps)
	}
	t.Logf("64 KB × 32 over loopback: %.1f MB/s", pt.MBps)
}

// A non-positive count takes the default; it used to time zero messages and
// report 0 (or, on a coarse clock, NaN) MB/s.
func TestBandwidthDefaultsCount(t *testing.T) {
	pt, err := Bandwidth(portals.Loopback(), 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(pt.MBps > 0) {
		t.Errorf("bandwidth with count 0 = %v MB/s", pt.MBps)
	}
}

func TestMemScaleTrend(t *testing.T) {
	const credits, bufSize = 16, 32 * 1024
	measure := func(n int) MemScalePoint {
		m := newMachine(t, portals.Loopback())
		p, err := MemScale(m, n, mpi.Config{}, credits, bufSize)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	small := measure(2)
	large := measure(16)
	t.Logf("peers=%d portals=%d via=%d | peers=%d portals=%d via=%d",
		small.Peers, small.PortalsBytes, small.VIABytes,
		large.Peers, large.PortalsBytes, large.VIABytes)
	if small.PortalsBytes != large.PortalsBytes {
		t.Errorf("portals unexpected memory varies with peers: %d vs %d",
			small.PortalsBytes, large.PortalsBytes)
	}
	if large.VIABytes <= small.VIABytes*10 {
		t.Errorf("VIA memory did not grow linearly: %d vs %d", small.VIABytes, large.VIABytes)
	}
}

func TestCollAblation(t *testing.T) {
	points, err := CollAblation(portals.Loopback(), 4, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		t.Logf("%s n=%d: direct=%v over-mpi=%v speedup=%.2f",
			p.Op, p.Procs, p.DirectPerOp, p.OverMPIPerOp, p.Speedup)
		if p.DirectPerOp <= 0 || p.OverMPIPerOp <= 0 {
			t.Errorf("%s: non-positive timing", p.Op)
		}
	}
}

// §4.1's scalability claim, measurable form: the dissemination barrier
// costs each process Θ(log n) messages — constant per-process state and
// work per doubling, the property that let Portals "support a parallel
// job running on the order of ten thousand nodes". (Wall time on this
// host measures total work across ALL simulated processes, which is
// n·log n by construction, so the per-process message count is the
// scale-invariant critical-path metric.)
func TestBarrierScalingLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment skipped in -short")
	}
	points, err := BarrierScaling(portals.Loopback(), []int{4, 16, 64}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		t.Logf("n=%3d  wall=%v  msgs/proc=%.2f  msgs/proc/log2(n)=%.2f",
			p.Procs, p.PerBarrier, p.MsgsPerProc, p.MsgsPerOpLog)
	}
	for _, p := range points {
		want := float64(bits.Len(uint(p.Procs - 1))) // ⌈log2 n⌉
		if p.MsgsPerProc < want-0.01 || p.MsgsPerProc > want+0.5 {
			t.Errorf("n=%d: %.2f msgs/proc/barrier, want ~%v (log2 rounds)",
				p.Procs, p.MsgsPerProc, want)
		}
	}
}

// E15's shape as a unit test, on trace order rather than on wall clocks: with
// the triggered (NIC-offloaded) chains armed, trig-fire instants land inside
// the ranks' compute-burn spans — the collective progresses on the delivery
// lanes while the host makes no library call, the evidence `tracecheck
// -require-offload` asks of a `sweep collbench` capture — and the host-driven
// tree, which can only move between burns, fires nothing. What that buys in
// time is logged, not asserted: sixteen spinning ranks on a shared two-core
// host decide it either way; docs/PERF.md §9 has the ≥64-proc numbers.
func TestOffloadHidesCollectiveLatency(t *testing.T) {
	const procs = 16
	const burn = 2 * time.Millisecond
	reg := metrics.NewRegistry()
	cfg := OffloadConfig{Iters: 6, Vec: 8, Metrics: reg}.withDefaults()
	fab := portals.Loopback().WithLanes(cfg.Lanes)
	type side func(portals.Fabric, int, time.Duration, OffloadConfig) (map[string]time.Duration, error)
	// firedInBurns runs one side under the flight recorder.
	firedInBurns := func(run side) (times map[string]time.Duration, inside, burns int) {
		rec := trace.Enable()
		defer trace.Disable()
		times, err := run(fab, procs, burn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		inside, burns = trace.InsideBurns(trace.ChromeEvents(rec.Snapshot()),
			func(name string) bool { return name == trace.StageTrigFire.String() })
		return times, inside, burns
	}

	off, inside, burns := firedInBurns(timeOffloaded)
	if burns == 0 || inside == 0 {
		t.Errorf("offloaded: %d trig-fire instants inside %d compute-burn spans, want both > 0", inside, burns)
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^portals_trig_fired_total.* [1-9]\d*$`).MatchString(text.String()) {
		t.Error("offloaded: no process reports portals_trig_fired_total > 0")
	}

	host, hostInside, hostBurns := firedInBurns(timeHostDriven)
	if hostBurns == 0 || hostInside != 0 {
		t.Errorf("host-driven: %d trig-fire instants inside %d compute-burn spans, want 0 inside > 0", hostInside, hostBurns)
	}
	t.Logf("offloaded: %d trig-fire instants inside %d burn spans; host-driven: %d inside %d",
		inside, burns, hostInside, hostBurns)
	for _, op := range []string{"barrier", "allreduce"} {
		t.Logf("%-9s procs=%d burn=%v offloaded=%v host=%v hidden=%v",
			op, procs, burn, off[op], host[op], host[op]-off[op])
	}
}

// Figure6Sweep drives both stacks over a work-interval range — the same
// code path `sweep bypass` and EXPERIMENTS.md describe, exercised end to end.
func TestFigure6SweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment skipped in -short")
	}
	cfg := fastBypassConfig()
	cfg.Iters = 1
	results, err := Figure6Sweep([]time.Duration{0, 10 * time.Millisecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 { // 2 stacks × 2 points
		t.Fatalf("got %d results", len(results))
	}
	byKey := map[string]time.Duration{}
	for _, r := range results {
		byKey[string(r.Stack)+r.WorkInterval.String()] = r.WaitTime
	}
	if byKey["portals10ms"]*2 >= byKey["gm10ms"] {
		t.Errorf("sweep lost the Figure 6 shape: portals %v vs gm %v",
			byKey["portals10ms"], byKey["gm10ms"])
	}
}
