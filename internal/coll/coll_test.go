package coll

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
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

// groups launches n members on a loopback machine.
func groups(t *testing.T, n int) []*Group {
	t.Helper()
	return groupsOn(t, portals.Loopback(), n)
}

// groupsOn launches n members on a machine over fab.
func groupsOn(t *testing.T, fab portals.Fabric, n int) []*Group {
	t.Helper()
	m := newMachine(t, fab)
	nis, err := m.LaunchJob(n)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]portals.ProcessID, n)
	for r, ni := range nis {
		ids[r] = ni.ID()
	}
	gs := make([]*Group, n)
	for r, ni := range nis {
		g, err := NewGroup(ni, r, ids, Config{})
		if err != nil {
			t.Fatal(err)
		}
		gs[r] = g
	}
	return gs
}

// runAll executes f on every member concurrently.
func runAll(t *testing.T, gs []*Group, f func(g *Group) error) {
	t.Helper()
	errs := make([]error, len(gs))
	var wg sync.WaitGroup
	for r, g := range gs {
		wg.Add(1)
		go func(r int, g *Group) {
			defer wg.Done()
			errs[r] = f(g)
		}(r, g)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestBarrierSizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 13} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			gs := groups(t, n)
			runAll(t, gs, func(g *Group) error {
				for i := 0; i < 5; i++ { // repeated barriers exercise gen handling
					if err := g.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			gs := groups(t, n)
			want := float64(n*(n-1)) / 2
			runAll(t, gs, func(g *Group) error {
				vec := []float64{float64(g.Rank()), 1}
				if err := g.Allreduce(vec, Sum); err != nil {
					return err
				}
				if vec[0] != want || vec[1] != float64(n) {
					return fmt.Errorf("rank %d: %v, want [%v %v]", g.Rank(), vec, want, n)
				}
				return nil
			})
		})
	}
}

// A put's body is lent to the fabric, not copied: over rtscts a vector of
// MaxVec doubles is a rendezvous message, read out of the sender's memory
// after the CTS and again for every retransmission — possibly after the
// partner's contribution for the same phase has arrived. A phase that
// encoded into the memory an earlier phase still sends from would hand the
// partner the wrong values; on a lossy fabric that shows.
func TestAllreduceLossyRendezvous(t *testing.T) {
	sim := simnet.Config{MTU: 4096, LossRate: 0.05, Seed: 31}
	for _, n := range []int{3, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			gs := groupsOn(t, portals.SimFabric(sim, rtscts.DefaultConfig()), n)
			const width = 4096 // Config.MaxVec's default
			runAll(t, gs, func(g *Group) error {
				vec := make([]float64, width)
				for iter := 0; iter < 4; iter++ {
					for i := range vec {
						vec[i] = float64(g.Rank()*width + i + iter)
					}
					if err := g.Allreduce(vec, Sum); err != nil {
						return err
					}
					for i, got := range vec {
						if want := float64(n*(i+iter) + width*n*(n-1)/2); got != want {
							return fmt.Errorf("rank %d iter %d: element %d = %v, want %v", g.Rank(), iter, i, got, want)
						}
					}
				}
				return nil
			})
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	gs := groups(t, 6)
	runAll(t, gs, func(g *Group) error {
		vec := []float64{float64(g.Rank() * 3)}
		if err := g.Allreduce(vec, Max); err != nil {
			return err
		}
		if vec[0] != 15 {
			return fmt.Errorf("max = %v", vec[0])
		}
		return nil
	})
}

func TestAllreduceRepeated(t *testing.T) {
	// Back-to-back allreduces stress the double-buffered slots.
	gs := groups(t, 4)
	runAll(t, gs, func(g *Group) error {
		for i := 1; i <= 10; i++ {
			vec := []float64{float64(g.Rank() * i)}
			if err := g.Allreduce(vec, Sum); err != nil {
				return err
			}
			if want := float64(6 * i); vec[0] != want {
				return fmt.Errorf("iter %d: %v, want %v", i, vec[0], want)
			}
		}
		return nil
	})
}

func TestBcastRoots(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for root := 0; root < n; root += 2 {
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				gs := groups(t, n)
				payload := bytes.Repeat([]byte{0xAB, 0xCD}, 1000)
				runAll(t, gs, func(g *Group) error {
					buf := make([]byte, len(payload))
					if g.Rank() == root {
						copy(buf, payload)
					}
					if err := g.Bcast(buf, root); err != nil {
						return err
					}
					if !bytes.Equal(buf, payload) {
						return fmt.Errorf("rank %d corrupted", g.Rank())
					}
					return nil
				})
			})
		}
	}
}

func TestBcastRepeated(t *testing.T) {
	gs := groups(t, 5)
	runAll(t, gs, func(g *Group) error {
		buf := make([]byte, 8)
		for i := 0; i < 10; i++ {
			if g.Rank() == 0 {
				copy(buf, fmt.Sprintf("round%03d", i))
			}
			if err := g.Bcast(buf, 0); err != nil {
				return err
			}
			if want := fmt.Sprintf("round%03d", i); string(buf) != want {
				return fmt.Errorf("rank %d round %d: %q", g.Rank(), i, buf)
			}
		}
		return nil
	})
}

func TestMixedCollectives(t *testing.T) {
	gs := groups(t, 4)
	runAll(t, gs, func(g *Group) error {
		for i := 0; i < 5; i++ {
			if err := g.Barrier(); err != nil {
				return err
			}
			vec := []float64{1}
			if err := g.Allreduce(vec, Sum); err != nil {
				return err
			}
			if vec[0] != 4 {
				return fmt.Errorf("allreduce %v", vec[0])
			}
			buf := []byte{0}
			if g.Rank() == i%4 {
				buf[0] = byte(i + 1)
			}
			if err := g.Bcast(buf, i%4); err != nil {
				return err
			}
			if buf[0] != byte(i+1) {
				return fmt.Errorf("bcast %d", buf[0])
			}
		}
		return nil
	})
}

func TestSizeLimits(t *testing.T) {
	m := newMachine(t, portals.Loopback())
	nis, err := m.LaunchJob(2)
	if err != nil {
		t.Fatal(err)
	}
	ids := []portals.ProcessID{nis[0].ID(), nis[1].ID()}
	g, err := NewGroup(nis[0], 0, ids, Config{MaxVec: 4, MaxMsg: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Allreduce(make([]float64, 5), Sum); err == nil {
		t.Error("oversized vector accepted")
	}
	if err := g.Bcast(make([]byte, 17), 0); err == nil {
		t.Error("oversized bcast accepted")
	}
	if err := g.Bcast(nil, 5); err == nil {
		t.Error("bad root accepted")
	}
	if _, err := NewGroup(nis[0], 7, ids, Config{}); err == nil {
		t.Error("bad rank accepted")
	}
}

// A missing member must surface as a timeout error, never a hang.
func TestTimeoutOnMissingMember(t *testing.T) {
	gs := groups(t, 3)
	gs[0].Timeout = 200 * time.Millisecond
	// Only member 0 enters the barrier.
	if err := gs[0].Barrier(); err == nil {
		t.Error("barrier with missing members succeeded")
	} else if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("unexpected error: %v", err)
	}
}
