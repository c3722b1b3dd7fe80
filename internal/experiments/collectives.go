package experiments

import (
	"fmt"
	"time"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
	"repro/portals"
)

// E7 — §2 cites "a high-performance collective communication library
// implemented directly on Portals" underneath Puma MPI. This experiment
// compares collectives built directly on Portals (internal/coll:
// persistent pre-armed entries, no tag matching, no unexpected copies,
// no rendezvous) against the same operations layered over MPI
// send/recv.

// CollPoint is one row of the ablation.
type CollPoint struct {
	Procs        int
	Op           string
	DirectPerOp  time.Duration
	OverMPIPerOp time.Duration
	Speedup      float64
}

// CollAblation times iters barriers and allreduces (vector length vec)
// for a job of n processes on the given fabric, both ways.
func CollAblation(fab portals.Fabric, n, iters, vec int) ([]CollPoint, error) {
	// The direct arm is E15's host-driven tree with nothing to burn.
	direct, err := timeHostDriven(fab, n, 0, OffloadConfig{Iters: iters, Vec: vec})
	if err != nil {
		return nil, fmt.Errorf("direct: %w", err)
	}
	over, err := timeOverMPI(fab, n, iters, vec)
	if err != nil {
		return nil, fmt.Errorf("over-mpi: %w", err)
	}
	out := make([]CollPoint, 0, 2)
	for _, op := range []string{"barrier", "allreduce"} {
		p := CollPoint{Procs: n, Op: op, DirectPerOp: direct[op], OverMPIPerOp: over[op]}
		if p.DirectPerOp > 0 {
			p.Speedup = float64(p.OverMPIPerOp) / float64(p.DirectPerOp)
		}
		out = append(out, p)
	}
	return out, nil
}

// E15 — the offload thesis taken to its conclusion: collectives whose whole
// progression is NIC-resident (internal/coll.TGroup, triggered operations
// armed against counting events) versus the same tree driven by host code
// (coll.Group). Each rank starts the collective, burns CPU making no
// library calls, then waits. With the chain offloaded the collective
// progresses on the delivery lanes DURING the burn, so per-op time tends
// to max(burn, latency); the host-driven tree cannot progress until the
// burn ends, so it pays burn + latency. The gap — Hidden — is the latency
// the offload buries under compute interference.

// OffloadPoint is one row of the offloaded-vs-host-driven comparison.
type OffloadPoint struct {
	Procs int
	Op    string        // "barrier" or "allreduce"
	Burn  time.Duration // per-iteration compute burn (0 = bare latency)
	// Offloaded is per-op wall time for Start / burn / Wait on a TGroup.
	Offloaded time.Duration
	// Host is per-op wall time for burn-then-collective on a coll.Group.
	Host time.Duration
	// Hidden = Host − Offloaded: collective latency overlapped with compute.
	Hidden time.Duration
}

// OffloadConfig parameterizes RunOffload. Zero fields take defaults.
type OffloadConfig struct {
	Iters int // repetitions per op (default 8)
	Vec   int // allreduce vector length (default 8)
	Lanes int // delivery lanes per node (default 1: one simulated NIC engine)
	// Metrics, when non-nil, receives every layer's counters from each
	// measurement machine — including portals_trig_armed/fired_total, the
	// offload's footprint.
	Metrics *metrics.Registry
}

func (c OffloadConfig) withDefaults() OffloadConfig {
	if c.Iters <= 0 {
		c.Iters = 8
	}
	if c.Vec <= 0 {
		c.Vec = 8
	}
	if c.Lanes <= 0 {
		c.Lanes = 1
	}
	return c
}

// burnSpan runs one compute burn bracketed by flight-recorder records so a
// trace capture shows what fired during it. With the triggered chain armed,
// lane-side trig-fire instants land INSIDE these spans — the evidence
// cmd/tracecheck -require-offload asserts.
func burnSpan(id portals.ProcessID, seq uint64, d time.Duration) {
	if d <= 0 {
		return
	}
	trace.Record(trace.StageAppBurnStart, uint32(id.NID), uint32(id.PID), seq, uint64(d))
	spin(d, 0, nil)
	trace.Record(trace.StageAppBurnEnd, uint32(id.NID), uint32(id.PID), seq, 0)
}

// RunOffload measures one (procs, burn) cell for both ops, both ways.
func RunOffload(fab portals.Fabric, procs int, burn time.Duration, cfg OffloadConfig) ([]OffloadPoint, error) {
	cfg = cfg.withDefaults()
	fab = fab.WithLanes(cfg.Lanes)
	off, err := timeOffloaded(fab, procs, burn, cfg)
	if err != nil {
		return nil, fmt.Errorf("offloaded: %w", err)
	}
	host, err := timeHostDriven(fab, procs, burn, cfg)
	if err != nil {
		return nil, fmt.Errorf("host-driven: %w", err)
	}
	out := make([]OffloadPoint, 0, 2)
	for _, op := range []string{"barrier", "allreduce"} {
		out = append(out, OffloadPoint{
			Procs: procs, Op: op, Burn: burn,
			Offloaded: off[op], Host: host[op], Hidden: host[op] - off[op],
		})
	}
	return out, nil
}

// newGroup builds a rank's member of the host-driven collectives stack, for
// launch.
func newGroup(maxVec int) func(*portals.NI, int, []portals.ProcessID) (*coll.Group, error) {
	return func(ni *portals.NI, r int, ids []portals.ProcessID) (*coll.Group, error) {
		return coll.NewGroup(ni, r, ids, coll.Config{MaxVec: maxVec})
	}
}

// timeOffloaded and timeHostDriven are the two arms of E15. Burn spans are
// keyed (NID, PID, seq); the per-op seq offsets keep the barrier and
// allreduce iterations of both arms on distinct trace spans.
func timeOffloaded(fab portals.Fabric, n int, burn time.Duration, cfg OffloadConfig) (_ map[string]time.Duration, err error) {
	j, err := launch(fab, n, cfg.Metrics, func(ni *portals.NI, r int, ids []portals.ProcessID) (*coll.TGroup, error) {
		return coll.NewTGroup(ni, r, ids, coll.Config{MaxVec: cfg.Vec})
	})
	if err != nil {
		return nil, err
	}
	defer teardown(j.machine, &err)
	return j.timeColl(cfg.Iters, cfg.Vec,
		func(tg *coll.TGroup, r, i int) error {
			if err := tg.BarrierStart(); err != nil {
				return err
			}
			burnSpan(j.ids[r], uint64(i), burn)
			return tg.BarrierWait()
		},
		func(tg *coll.TGroup, r, i int, v []float64) error {
			if err := tg.AllreduceSumStart(v); err != nil {
				return err
			}
			burnSpan(j.ids[r], uint64(1_000_000+i), burn)
			return tg.AllreduceSumWait(v)
		})
}

func timeHostDriven(fab portals.Fabric, n int, burn time.Duration, cfg OffloadConfig) (_ map[string]time.Duration, err error) {
	j, err := launch(fab, n, nil, newGroup(cfg.Vec))
	if err != nil {
		return nil, err
	}
	defer teardown(j.machine, &err)
	return j.timeColl(cfg.Iters, cfg.Vec,
		func(g *coll.Group, r, i int) error {
			burnSpan(j.ids[r], uint64(2_000_000+i), burn)
			return g.Barrier()
		},
		func(g *coll.Group, r, i int, v []float64) error {
			burnSpan(j.ids[r], uint64(3_000_000+i), burn)
			return g.Allreduce(v, coll.Sum)
		})
}

// OffloadSweep runs the full grid — the paper-shaped experiment behind
// `sweep collbench` and docs/PERF.md's offloaded-collectives table.
func OffloadSweep(fab portals.Fabric, procCounts []int, burns []time.Duration, cfg OffloadConfig) ([]OffloadPoint, error) {
	var out []OffloadPoint
	for _, n := range procCounts {
		for _, b := range burns {
			pts, err := RunOffload(fab, n, b, cfg)
			if err != nil {
				return nil, fmt.Errorf("procs=%d burn=%v: %w", n, b, err)
			}
			out = append(out, pts...)
		}
	}
	return out, nil
}

func timeOverMPI(fab portals.Fabric, n, iters, vec int) (_ map[string]time.Duration, err error) {
	j, err := launch(fab, n, nil, func(ni *portals.NI, r int, ids []portals.ProcessID) (*mpi.Comm, error) {
		return mpi.New(ni, r, ids, 1, mpi.Config{})
	})
	if err != nil {
		return nil, err
	}
	defer teardown(j.machine, &err)
	return j.timeColl(iters, vec,
		func(c *mpi.Comm, _, _ int) error { return c.Barrier() },
		func(c *mpi.Comm, _, _ int, v []float64) error { return c.Allreduce(v, mpi.Sum) })
}
