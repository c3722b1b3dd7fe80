package experiments

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/portals"
)

// E12 — §5.1: "Portals are aimed at significantly reducing receive
// overhead, which has been shown to have a greater impact on application
// performance than latency and bandwidth." And §5.3: "the particular
// implementation of Portals 3.0 that we used for the above experiment is
// interrupt-driven, so it has the same drawbacks that an interrupt-driven
// implementation of MPI would have. However, the NIC-based implementation
// ... will address these limitations."
//
// This experiment quantifies that remark: a target process runs a
// calibrated compute loop while a peer streams messages into one of its
// pre-armed portals. Under the NIC-offload model the messages cost the
// host nothing beyond what the shared-CPU simulation inherently charges;
// under the host-interrupt model every message additionally burns the
// configured interrupt cost on the host CPU. The difference in compute
// slowdown is the receive overhead the MCP implementation removes.
//
// The host has one CPU, as the paper's Cplant nodes did: an interrupt takes
// it from the application. The experiment therefore runs on one P whatever
// GOMAXPROCS the process has — with a second P the interrupt burn runs
// beside the compute loop and the loop's wall clock shows nothing of it.

// OverheadResult is one row of the receive-overhead table.
type OverheadResult struct {
	// IdleCompute is the compute-loop time with no incoming traffic;
	// LoadedCompute the same loop while messages stream in.
	IdleCompute   time.Duration
	LoadedCompute time.Duration
	// SlowdownPct = (loaded-idle)/idle × 100.
	SlowdownPct float64
	// Messages delivered during the loaded run, and interrupts taken.
	Messages   int64
	Interrupts int64
}

// OverheadConfig parameterizes the experiment.
type OverheadConfig struct {
	// ComputeIters calibrates the compute loop (units of ~200 xor-shift
	// rounds with a yield, as in the Figure 5 work loop).
	ComputeIters int
	// MsgSize and MsgGap shape the incoming stream.
	MsgSize int
	MsgGap  time.Duration
}

// DefaultOverheadConfig gives a few-ms compute loop under a steady
// small-message stream.
func DefaultOverheadConfig() OverheadConfig {
	return OverheadConfig{ComputeIters: 30000, MsgSize: 1024, MsgGap: 20 * time.Microsecond}
}

// minLoadedMsgs is how many messages must have landed before the loaded
// compute measurement ends.
const minLoadedMsgs = 32

// computeLoop is the calibrated host computation.
func computeLoop(iters int) time.Duration {
	start := time.Now()
	acc := uint64(1)
	for i := 0; i < iters; i++ {
		for k := 0; k < 200; k++ {
			acc ^= acc<<13 ^ acc>>7 ^ acc<<17
		}
		runtime.Gosched()
	}
	runtime.KeepAlive(acc)
	return time.Since(start)
}

// ReceiveOverhead measures compute slowdown under incoming traffic for
// one NIC model. It sets GOMAXPROCS to 1 while it runs (the single-CPU
// host), so nothing else in the process should be timing itself meanwhile.
func ReceiveOverhead(model portals.NICModel, interruptCost time.Duration, cfg OverheadConfig) (_ OverheadResult, err error) {
	if cfg.ComputeIters <= 0 {
		cfg = DefaultOverheadConfig()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The standard Myrinet-class fabric under the given NIC processing model.
	m := portals.NewMachine(portals.Myrinet().WithNIC(model, interruptCost))
	defer teardown(m, &err)
	rx, err := m.NIInit(1, 1, portals.Limits{})
	if err != nil {
		return OverheadResult{}, err
	}
	tx, err := m.NIInit(2, 1, portals.Limits{})
	if err != nil {
		return OverheadResult{}, err
	}
	// Pre-armed sink: no event queue, so event handling doesn't muddy the
	// overhead measurement; delivery is pure engine work.
	if _, err := sink(rx, 1, make([]byte, cfg.MsgSize), 0); err != nil {
		return OverheadResult{}, err
	}

	res := OverheadResult{IdleCompute: computeLoop(cfg.ComputeIters)}

	// Stream messages while the target computes. The sender counts what it
	// put, so what is compared below is counters, not timing.
	stop := make(chan struct{})
	senderDone := make(chan error, 1)
	var puts atomic.Int64
	payload := make([]byte, cfg.MsgSize)
	md, err := tx.MDBind(portals.MD{Start: payload, Threshold: portals.ThresholdInfinite}, portals.Retain)
	if err != nil {
		return OverheadResult{}, err
	}
	go func() {
		for {
			select {
			case <-stop:
				senderDone <- nil
				return
			default:
			}
			if err := tx.Put(md, portals.NoAckReq, rx.ID(), 0, 0, 1, 0); err != nil {
				senderDone <- err
				return
			}
			puts.Add(1)
			if cfg.MsgGap > 0 {
				time.Sleep(cfg.MsgGap)
			}
		}
	}()

	// The loaded loop runs whole passes until enough messages have landed
	// under it to call it loaded — on a busy box, or with one P, the sender
	// may not have run at all during the first pass.
	const deadline = 20 * time.Second
	passes, began := 0, time.Now()
	for passes == 0 || rx.Status().RecvMsgs < minLoadedMsgs && time.Since(began) < deadline {
		res.LoadedCompute += computeLoop(cfg.ComputeIters)
		passes++
	}
	res.LoadedCompute /= time.Duration(passes)
	close(stop)
	if err := <-senderDone; err != nil {
		return OverheadResult{}, err
	}
	// Everything put is delivered (the fabric is reliable) — wait for it, so
	// no message is read between its interrupt charge and its delivery.
	st := rx.Status()
	for began = time.Now(); st.RecvMsgs < puts.Load() && time.Since(began) < deadline; st = rx.Status() {
		time.Sleep(50 * time.Microsecond)
	}
	res.Messages = st.RecvMsgs
	res.Interrupts = st.Interrupts
	if res.IdleCompute > 0 {
		res.SlowdownPct = 100 * float64(res.LoadedCompute-res.IdleCompute) / float64(res.IdleCompute)
	}
	return res, nil
}
