package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs/metrics"
	"repro/portals"
)

// mpiStack is what the Figure-5 program (bypass.go) asks of an MPI
// implementation. *mpi.Comm with *mpi.Request and *gmsim.Comm with
// *gmsim.Request both offer it, which is what lets E1/E2 run one program
// text on the two stacks.
type mpiStack[R any] interface {
	Rank() int
	Irecv(buf []byte, src, tag int) (R, error)
	Isend(buf []byte, dst, tag int) (R, error)
	Barrier() error
}

// job is a launched n-process job on its own machine with one member per
// rank — a coll.Group, a coll.TGroup or an mpi.Comm, whichever stack the
// experiment times. It is the scaffold under every collective driver (E7,
// E14, E15): launch, build a member per rank, run a step on every rank,
// first error.
type job[G any] struct {
	machine *portals.Machine
	nis     []*portals.NI
	ids     []portals.ProcessID
	members []G
}

// launch brings up a fresh machine on fab, launches n processes and builds
// each rank's member. reg, when non-nil, receives every layer's counters of
// the machine. The caller shuts the machine down (teardown).
func launch[G any](fab portals.Fabric, n int, reg *metrics.Registry,
	member func(ni *portals.NI, rank int, ids []portals.ProcessID) (G, error)) (*job[G], error) {
	j := &job[G]{machine: portals.NewMachine(fab), ids: make([]portals.ProcessID, n), members: make([]G, n)}
	var err error
	if j.nis, err = j.machine.LaunchJob(n); err != nil {
		return nil, errors.Join(err, j.machine.CheckTeardown())
	}
	if reg != nil {
		j.machine.RegisterMetrics(reg)
	}
	for r, ni := range j.nis {
		j.ids[r] = ni.ID()
	}
	for r, ni := range j.nis {
		if j.members[r], err = member(ni, r, j.ids); err != nil {
			return nil, errors.Join(err, j.machine.CheckTeardown())
		}
	}
	return j, nil
}

// teardown shuts m down through its teardown check (Machine.CheckTeardown)
// and joins what the check found — an RCU pin left open, a put body still
// lent, an arena entry no table reaches — to *err: a measurement taken on a
// machine that leaks is not reported as a clean one. Deferred by every
// experiment that builds its own machine.
func teardown(m *portals.Machine, err *error) { *err = errors.Join(*err, m.CheckTeardown()) }

// run executes iters repetitions of step on every rank concurrently (one
// goroutine per rank, the in-process analogue of one process per node) and
// returns the wall time per repetition, or the first rank's error.
func (j *job[G]) run(iters int, step func(g G, r, i int) error) (time.Duration, error) {
	errs := make([]error, len(j.members))
	var wg sync.WaitGroup
	start := time.Now()
	for r, g := range j.members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && errs[r] == nil; i++ {
				errs[r] = step(g, r, i)
			}
		}()
	}
	wg.Wait()
	per := time.Since(start) / time.Duration(iters)
	for r, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return per, nil
}

// timeColl is one arm of a collectives comparison: it times iters barriers
// and then iters allreduces over a per-rank vector of vec elements, refilled
// before every allreduce so each repetition reduces fresh values, and
// reports the wall time per operation keyed "barrier" and "allreduce".
func (j *job[G]) timeColl(iters, vec int, barrier func(g G, r, i int) error,
	allreduce func(g G, r, i int, v []float64) error) (map[string]time.Duration, error) {
	vecs := make([][]float64, len(j.members))
	for r := range vecs {
		vecs[r] = make([]float64, vec)
	}
	res := map[string]time.Duration{}
	var err error
	if res["barrier"], err = j.run(iters, barrier); err != nil {
		return nil, err
	}
	res["allreduce"], err = j.run(iters, func(g G, r, i int) error {
		v := vecs[r]
		for k := range v {
			v[k] = float64(r + i)
		}
		return allreduce(g, r, i, v)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
