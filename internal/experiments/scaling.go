package experiments

import (
	"math/bits"
	"time"

	"repro/internal/coll"
	"repro/portals"
)

// E14 — §4.1: "The primary goal in the design of Portals is scalability
// ... designed specifically for an implementation capable of supporting a
// parallel job running on the order of ten thousand nodes." The concrete,
// measurable consequence on the protocol level: collective operations
// built on Portals complete in O(log n) communication rounds with
// constant per-process state, so their latency grows logarithmically —
// not linearly — with the job size.

// ScalePoint is one row of the scaling table. On a host where every
// simulated process shares the CPUs, wall time measures total protocol
// WORK (Θ(n log n) messages per barrier), so the scale-invariant
// quantity is the per-process message count — the critical-path metric
// that would be wall time on real parallel hardware. It must equal
// ⌈log2 n⌉ for a dissemination barrier.
type ScalePoint struct {
	Procs        int
	PerBarrier   time.Duration // wall time (total-work proxy on shared CPUs)
	MsgsPerProc  float64       // protocol messages per process per barrier
	MsgsPerOpLog float64       // MsgsPerProc / ⌈log2 n⌉: ~1.0 if logarithmic
}

// BarrierScaling measures dissemination-barrier cost across job sizes on
// the given fabric.
func BarrierScaling(fab portals.Fabric, sizes []int, iters int) ([]ScalePoint, error) {
	if iters <= 0 {
		iters = 20
	}
	out := make([]ScalePoint, 0, len(sizes))
	for _, n := range sizes {
		d, msgs, err := timeBarriers(fab, n, iters)
		if err != nil {
			return nil, err
		}
		p := ScalePoint{Procs: n, PerBarrier: d, MsgsPerProc: msgs}
		if lg := bits.Len(uint(n - 1)); lg > 0 { // ⌈log2 n⌉
			p.MsgsPerOpLog = msgs / float64(lg)
		}
		out = append(out, p)
	}
	return out, nil
}

func timeBarriers(fab portals.Fabric, n, iters int) (_ time.Duration, _ float64, err error) {
	j, err := launch(fab, n, nil, newGroup(0))
	if err != nil {
		return 0, 0, err
	}
	defer teardown(j.machine, &err)
	barrier := func(g *coll.Group, _, _ int) error { return g.Barrier() }
	sends := func() (total int64) {
		for _, ni := range j.nis {
			total += ni.Status().SendMsgs
		}
		return total
	}
	// One warm-up round brings all lazy per-pair state up.
	if _, err := j.run(1, barrier); err != nil {
		return 0, 0, err
	}
	before := sends()
	per, err := j.run(iters, barrier)
	if err != nil {
		return 0, 0, err
	}
	return per, float64(sends()-before) / float64(iters) / float64(n), nil
}
