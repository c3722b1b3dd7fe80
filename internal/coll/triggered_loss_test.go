package coll

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rtscts"
	"repro/internal/transport/udp"
	"repro/internal/transport/udp/proxytest"
	"repro/portals"
)

// TestTriggeredUDPLoss drives the triggered collectives over real kernel
// UDP sockets with a lossy relay interposed on the rank0↔rank1 tree edge —
// the bounded-duration CI variant of the `sweep collbench -fabric udp`
// sweep. Counting events only ever see exactly-once, in-order delivery
// (rtscts sits below them), so the chains must complete with correct sums
// at 0% and 1% drop alike; what loss costs is latency, which the test
// logs but does not assert (scheduler noise would flake it).
func TestTriggeredUDPLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("udp loss sweep skipped in -short")
	}
	const n = 4
	const rounds = 10
	for _, drop := range []float64{0, 0.01} {
		t.Run(fmt.Sprintf("drop=%g", drop), func(t *testing.T) {
			rel := rtscts.Config{Window: 16, RTO: 50 * time.Millisecond, RTOMin: 2 * time.Millisecond}
			net := udp.NewWithConfig(udp.Config{Reliability: rel})
			m := newMachine(t, portals.CustomFabric("udp", net).WithLanes(1))
			nis, err := m.LaunchJob(n)
			if err != nil {
				t.Fatal(err)
			}

			var toRoot, toChild *proxytest.Relay
			if drop > 0 {
				// Relays interpose after launch: each node bound its real
				// socket, so re-registering NIDs 1 and 2 at the relay
				// addresses routes that edge's datagrams through the fault
				// injector (frame headers carry identity, not addresses).
				addrRoot, _ := net.Addr(1)
				addrChild, _ := net.Addr(2)
				if toChild, err = proxytest.New(addrChild, proxytest.Config{Drop: drop, Seed: 42}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(toChild.Close)
				if toRoot, err = proxytest.New(addrRoot, proxytest.Config{Drop: drop, Seed: 43}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(toRoot.Close)
				if err := net.Register(2, toChild.Addr()); err != nil {
					t.Fatal(err)
				}
				if err := net.Register(1, toRoot.Addr()); err != nil {
					t.Fatal(err)
				}
			}

			ids := make([]portals.ProcessID, n)
			for r, ni := range nis {
				ids[r] = ni.ID()
			}
			groups := make([]*TGroup, n)
			for r, ni := range nis {
				tg, err := NewTGroup(ni, r, ids, Config{})
				if err != nil {
					t.Fatal(err)
				}
				tg.Timeout = 20 * time.Second
				groups[r] = tg
			}

			start := time.Now()
			runAllT(t, groups, func(tg *TGroup) error {
				for round := 0; round < rounds; round++ {
					if err := tg.Barrier(); err != nil {
						return fmt.Errorf("round %d barrier: %w", round, err)
					}
					vec := []float64{float64(tg.Rank()), 1}
					if err := tg.AllreduceSum(vec); err != nil {
						return fmt.Errorf("round %d allreduce: %w", round, err)
					}
					if want := float64(n*(n-1)) / 2; vec[0] != want || vec[1] != n {
						return fmt.Errorf("round %d: sum %v, want [%v %v]", round, vec, want, float64(n))
					}
				}
				return nil
			})
			perOp := time.Since(start) / (2 * rounds)
			t.Logf("drop=%g%%: %d rounds of barrier+allreduce over udp, %v/op", drop*100, rounds, perOp)

			if drop > 0 {
				if toChild.Stats().Forwarded.Load() == 0 && toRoot.Stats().Forwarded.Load() == 0 {
					t.Error("relays forwarded nothing — interposition not in the path")
				}
				t.Logf("relay →child: fwd=%d drop=%d; →root: fwd=%d drop=%d",
					toChild.Stats().Forwarded.Load(), toChild.Stats().Dropped.Load(),
					toRoot.Stats().Forwarded.Load(), toRoot.Stats().Dropped.Load())
			}
		})
	}
}
