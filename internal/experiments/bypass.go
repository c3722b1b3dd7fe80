// Package experiments contains the drivers that regenerate every table
// and figure of the paper's evaluation (see DESIGN.md's per-experiment
// index). Each driver builds its own fresh fabric so runs are independent
// and parameterizable; cmd/sweep's table rows and the root benchmarks are
// thin wrappers around these functions.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/gmsim"
	"repro/internal/mpi"
	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
	"repro/internal/rtscts"
	"repro/internal/transport/simnet"
	"repro/portals"
)

// Stack selects which MPI implementation runs the experiment.
type Stack string

const (
	// StackPortals is MPICH-over-Portals-3.0: progress by the delivery
	// engine (application bypass).
	StackPortals Stack = "portals"
	// StackGM is MPICH-over-GM: progress only inside library calls.
	StackGM Stack = "gm"
)

// BypassConfig parameterizes the Figure 5/6 experiment.
type BypassConfig struct {
	// Batch and MsgSize: "a batch consists of ten equal sized messages"
	// of 50 KB (§5.3).
	Batch   int
	MsgSize int
	// Iters averages the measurement ("timings were averaged by
	// repeating the experiment several times").
	Iters int
	// TestCalls sprinkles MPI test calls through the work interval (the
	// "related testing" variant: 3 calls let MPICH/GM catch up).
	TestCalls int
	// Fabric parameters shared by both stacks (Myrinet-class default).
	Net simnet.Config
	Rel rtscts.Config
	// Metrics, when non-nil, receives every layer's counters for the
	// Portals stack's machine (Machine.RegisterMetrics) on each iteration.
	Metrics *metrics.Registry
}

// DefaultBypassConfig mirrors the paper's setup scaled to the simulated
// fabric.
func DefaultBypassConfig() BypassConfig {
	return BypassConfig{Rel: rtscts.DefaultConfig()}.withDefaults()
}

func (c BypassConfig) withDefaults() BypassConfig {
	if c.Batch <= 0 {
		c.Batch = 10
	}
	if c.MsgSize <= 0 {
		c.MsgSize = 50 * 1024
	}
	if c.Iters <= 0 {
		c.Iters = 5
	}
	if c.Net.MTU == 0 {
		c.Net = simnet.Myrinet()
	}
	return c
}

// BypassResult is one point of Figure 6.
type BypassResult struct {
	Stack        Stack
	WorkInterval time.Duration
	// WaitTime is "how much of the message handling remained to be done
	// after the work interval" — time A to time B of Figure 5.
	WaitTime time.Duration
}

// spin performs the "work (fixed loop iterations)" of Figure 5: a
// compute loop that makes no library calls, optionally calling Test
// (progress) at evenly spaced points.
//
// On the paper's hardware the protocol engine was a separate processor
// (the LANai, or a kernel interrupt context preempting the application).
// In this reproduction the engine is a set of goroutines sharing the
// host's CPUs with this loop, so the loop yields the processor between
// arithmetic slices: that gives the engine exactly the execution
// resource the NIC/interrupt context would have had, without making any
// message-passing library calls — which is the variable under test. The
// GM baseline's engine parks messages without processing them, so
// yielding is stack-neutral.
func spin(d time.Duration, testCalls int, progress func()) {
	if d <= 0 {
		if testCalls > 0 && progress != nil {
			for i := 0; i < testCalls; i++ {
				progress()
			}
		}
		return
	}
	chunks := testCalls + 1
	per := d / time.Duration(chunks)
	acc := uint64(1)
	for i := 0; i < chunks; i++ {
		end := time.Now().Add(per)
		for time.Now().Before(end) {
			for k := 0; k < 200; k++ { // the "fixed loop iterations"
				acc ^= acc<<13 ^ acc>>7 ^ acc<<17
			}
			runtime.Gosched()
		}
		if i < testCalls && progress != nil {
			progress()
		}
	}
	runtime.KeepAlive(acc)
}

// RunBypass measures one Figure 6 point: both nodes run the Figure-5
// program on the chosen stack; node 0 works for the given interval and
// times how long the final wait takes.
func RunBypass(stack Stack, work time.Duration, cfg BypassConfig) (BypassResult, error) {
	cfg = cfg.withDefaults()
	var total time.Duration
	for i := 0; i < cfg.Iters; i++ {
		var wait time.Duration
		var err error
		switch stack {
		case StackPortals:
			wait, err = figure5OnPortals(work, cfg, i)
		case StackGM:
			wait, err = figure5OnGM(work, cfg)
		default:
			return BypassResult{}, fmt.Errorf("experiments: unknown stack %q", stack)
		}
		if err != nil {
			return BypassResult{}, err
		}
		total += wait
	}
	return BypassResult{
		Stack:        stack,
		WorkInterval: work,
		WaitTime:     total / time.Duration(cfg.Iters),
	}, nil
}

// figure5 is the program of Figure 5, written once for both MPI stacks:
// pre-post Batch receives, barrier, post Batch sends; rank 0 then works and
// times the wait for the whole batch (time A to time B), which it returns.
// What differs between the stacks is handed in: their WaitAll, and the work
// phase — how the compute loop's test calls make progress, and whether the
// burn is bracketed for the flight recorder.
func figure5[R any](c mpiStack[R], waitAll func(...R) error, cfg BypassConfig, work func(recvs []R)) (time.Duration, error) {
	peer := 1 - c.Rank()
	payload := make([]byte, cfg.MsgSize)
	reqs := make([]R, 2*cfg.Batch)
	recvs, sends := reqs[:cfg.Batch], reqs[cfg.Batch:]
	// Pre-post several non-blocking receives (Figure 5).
	for j := range recvs {
		r, err := c.Irecv(make([]byte, cfg.MsgSize), peer, j)
		if err != nil {
			return 0, err
		}
		recvs[j] = r
	}
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	// Post a batch of sends.
	for j := range sends {
		s, err := c.Isend(payload, peer, j)
		if err != nil {
			return 0, err
		}
		sends[j] = s
	}
	if c.Rank() != 0 {
		return 0, waitAll(reqs...)
	}
	// Work, then time the remaining message handling.
	work(recvs)
	tA := time.Now()
	err := waitAll(reqs...)
	return time.Since(tA), err
}

func figure5OnPortals(work time.Duration, cfg BypassConfig, iter int) (time.Duration, error) {
	m := portals.NewMachine(portals.SimFabric(cfg.Net, cfg.Rel))
	defer m.Close()
	w, err := mpi.NewWorld(m, 2, mpi.Config{})
	if err != nil {
		return 0, err
	}
	if cfg.Metrics != nil {
		m.RegisterMetrics(cfg.Metrics)
	}
	var wait time.Duration
	err = w.Run(func(c *mpi.Comm) error {
		d, err := figure5(c, mpi.WaitAll, cfg, func(recvs []*mpi.Request) {
			// The burn bracket makes the Figure-6 claim visible in a trace
			// capture: receive-side match/deliver/event-post instants land
			// INSIDE this span while the application makes no library calls.
			trace.Record(trace.StageAppBurnStart, 1, 1, uint64(iter), uint64(work))
			spin(work, cfg.TestCalls, func() {
				for _, r := range recvs {
					r.Test() //nolint:errcheck // progress side effect only
				}
			})
			trace.Record(trace.StageAppBurnEnd, 1, 1, uint64(iter), 0)
		})
		if c.Rank() == 0 {
			wait = d
		}
		return err
	})
	return wait, err
}

func figure5OnGM(work time.Duration, cfg BypassConfig) (time.Duration, error) {
	net := rtscts.NewNetwork(simnet.New(cfg.Net), cfg.Rel)
	defer net.Close()
	w, err := gmsim.NewWorld(net, 2, gmsim.Config{})
	if err != nil {
		return 0, err
	}
	defer w.Close()
	var wait time.Duration
	err = w.Run(func(c *gmsim.Comm) error {
		// No burn bracket: GM has no delivery engine whose instants could
		// land inside one, and its spans would share the Portals run's keys.
		d, err := figure5(c, gmsim.WaitAll, cfg, func([]*gmsim.Request) {
			spin(work, cfg.TestCalls, c.Progress)
		})
		if c.Rank() == 0 {
			wait = d
		}
		return err
	})
	return wait, err
}

// Figure6Sweep runs both stacks across a range of work intervals,
// regenerating the two curves of Figure 6.
func Figure6Sweep(works []time.Duration, cfg BypassConfig) ([]BypassResult, error) {
	var out []BypassResult
	for _, stack := range []Stack{StackGM, StackPortals} {
		for _, w := range works {
			r, err := RunBypass(stack, w, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}
