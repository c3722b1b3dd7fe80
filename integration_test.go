package repro

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/rtscts"
	"repro/internal/shmem"
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

// Full-stack integration: an MPI mini-application (ring halo exchange +
// allreduce every iteration) over the LOSSY simulated Myrinet — every
// layer of the system exercised at once, with numerical verification.
// The fault injection means the RTS/CTS layer is actively repairing the
// stream underneath the running application.
func TestFullStackLossyApplication(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	sim := simnet.Config{
		Latency: 5 * time.Microsecond, Bandwidth: 160e6, MTU: 4096,
		LossRate: 0.03, DupRate: 0.02, ReorderRate: 0.02, Seed: 77,
	}
	m := newMachine(t, portals.SimFabric(sim, rtscts.Config{RTO: 15 * time.Millisecond}))
	const (
		ranks = 4
		cells = 512
		iters = 10
	)
	w, err := mpi.NewWorld(m, ranks, mpi.Config{EagerLimit: 2048})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		// Each rank owns a block of a ring; every iteration it exchanges
		// edge values with both neighbours (4 KB messages → long
		// protocol over the lossy fabric) and checks a global invariant.
		state := bytes.Repeat([]byte{byte(c.Rank() + 1)}, cells*8)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		fromPrev := make([]byte, len(state))
		fromNext := make([]byte, len(state))
		for it := 0; it < iters; it++ {
			rp, err := c.Irecv(fromPrev, prev, it)
			if err != nil {
				return err
			}
			rn, err := c.Irecv(fromNext, next, it)
			if err != nil {
				return err
			}
			s1, err := c.Isend(state, next, it)
			if err != nil {
				return err
			}
			s2, err := c.Isend(state, prev, it)
			if err != nil {
				return err
			}
			if err := mpi.WaitAll(rp, rn, s1, s2); err != nil {
				return err
			}
			if fromPrev[0] != byte(prev+1) || fromNext[0] != byte(next+1) {
				return fmt.Errorf("iter %d: halo data wrong: %d/%d", it, fromPrev[0], fromNext[0])
			}
			// Global invariant: sum of first-cell values is constant.
			v := []float64{float64(state[0])}
			if err := c.Allreduce(v, mpi.Sum); err != nil {
				return err
			}
			if want := float64(ranks*(ranks+1)) / 2; v[0] != want {
				return fmt.Errorf("iter %d: allreduce = %v, want %v", it, v[0], want)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// All four protocol layers sharing ONE set of interfaces at once: MPI
// point-to-point, MPI windows, direct-Portals collectives, and shmem —
// the §2 design goal ("multiple protocols within the same process")
// verified end to end.
func TestProtocolCoexistence(t *testing.T) {
	m := newMachine(t, portals.Loopback())
	const n = 3
	nis, err := m.LaunchJob(n)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]portals.ProcessID, n)
	for r, ni := range nis {
		ids[r] = ni.ID()
	}
	comms := make([]*mpi.Comm, n)
	groups := make([]*coll.Group, n)
	pes := make([]*shmem.PE, n)
	for r, ni := range nis {
		if comms[r], err = mpi.New(ni, r, ids, 1, mpi.Config{}); err != nil {
			t.Fatal(err)
		}
		if groups[r], err = coll.NewGroup(ni, r, ids, coll.Config{}); err != nil {
			t.Fatal(err)
		}
		if pes[r], err = shmem.NewPE(ni, r, ids); err != nil {
			t.Fatal(err)
		}
		if err := pes[r].ExposeBarrier(); err != nil {
			t.Fatal(err)
		}
	}
	shmemRegions := make([][]byte, n)
	for r := range pes {
		shmemRegions[r] = make([]byte, 8)
		if err := pes[r].Expose(50, shmemRegions[r]); err != nil {
			t.Fatal(err)
		}
	}

	errs := make([]error, n)
	done := make(chan struct{})
	for r := 0; r < n; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			c, g, pe := comms[r], groups[r], pes[r]
			win, err := c.WinCreate(make([]byte, 8))
			if err != nil {
				errs[r] = err
				return
			}
			for round := 0; round < 5; round++ {
				// MPI p2p ring.
				out := []byte{byte(10*r + round)}
				in := make([]byte, 1)
				if _, err := c.Sendrecv(out, (r+1)%n, round, in, (r-1+n)%n, round); err != nil {
					errs[r] = err
					return
				}
				if in[0] != byte(10*((r-1+n)%n)+round) {
					errs[r] = fmt.Errorf("round %d: p2p got %d", round, in[0])
					return
				}
				// Direct-Portals collective.
				v := []float64{1}
				if err := g.Allreduce(v, coll.Sum); err != nil {
					errs[r] = err
					return
				}
				if v[0] != float64(n) {
					errs[r] = fmt.Errorf("round %d: coll allreduce %v", round, v[0])
					return
				}
				// MPI window put.
				if err := win.Put((r+1)%n, uint64(round), []byte{byte(r + 1)}); err != nil {
					errs[r] = err
					return
				}
				if err := win.Fence(); err != nil {
					errs[r] = err
					return
				}
				// shmem put + barrier.
				if err := pe.Put((r+1)%n, 50, uint64(round), []byte{byte(100 + r)}); err != nil {
					errs[r] = err
					return
				}
				if err := pe.Barrier(); err != nil {
					errs[r] = err
					return
				}
				if shmemRegions[r][round] != byte(100+(r-1+n)%n) {
					errs[r] = fmt.Errorf("round %d: shmem slot %d", round, shmemRegions[r][round])
					return
				}
			}
		}(r)
	}
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("coexistence test stalled")
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
