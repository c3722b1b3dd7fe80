package coll

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/portals"
)

// tgroups launches n triggered-group members on a loopback machine.
func tgroups(t *testing.T, n int, lanes ...int) []*TGroup {
	t.Helper()
	f := portals.Loopback()
	if len(lanes) > 0 {
		f = f.WithLanes(lanes[0])
	}
	m := newMachine(t, f)
	nis, err := m.LaunchJob(n)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]portals.ProcessID, n)
	for r, ni := range nis {
		ids[r] = ni.ID()
	}
	ts := make([]*TGroup, n)
	for r, ni := range nis {
		tg, err := NewTGroup(ni, r, ids, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tg.Timeout = 10 * time.Second
		ts[r] = tg
	}
	return ts
}

// runAllT executes f on every member concurrently.
func runAllT(t *testing.T, ts []*TGroup, f func(tg *TGroup) error) {
	t.Helper()
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for r, tg := range ts {
		wg.Add(1)
		go func(r int, tg *TGroup) {
			defer wg.Done()
			errs[r] = f(tg)
		}(r, tg)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTriggeredBarrierSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ts := tgroups(t, n)
			runAllT(t, ts, func(tg *TGroup) error {
				for i := 0; i < 5; i++ {
					if err := tg.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// TestTriggeredBarrierEnforces checks the barrier actually holds members
// back: a flag written before each member's barrier must be visible to
// every member after it.
func TestTriggeredBarrierEnforces(t *testing.T) {
	const n = 7
	ts := tgroups(t, n)
	var arrived [n]sync.WaitGroup
	for i := range arrived {
		arrived[i].Add(n)
	}
	runAllT(t, ts, func(tg *TGroup) error {
		for round := 0; round < len(arrived); round++ {
			arrived[round].Done()
			if err := tg.Barrier(); err != nil {
				return err
			}
			// After the barrier every member must have arrived.
			done := make(chan struct{})
			go func() { arrived[round].Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("barrier released before all members arrived (round %d)", round)
			}
		}
		return nil
	})
}

func TestTriggeredAllreduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ts := tgroups(t, n)
			runAllT(t, ts, func(tg *TGroup) error {
				for round := 0; round < 5; round++ {
					vec := []float64{float64(tg.Rank() + round), 1, -2.5}
					if err := tg.AllreduceSum(vec); err != nil {
						return err
					}
					want := [3]float64{float64(n*(n-1))/2 + float64(n*round), float64(n), -2.5 * float64(n)}
					for i, w := range want {
						if vec[i] != w {
							return fmt.Errorf("round %d elem %d = %v, want %v", round, i, vec[i], w)
						}
					}
				}
				return nil
			})
		})
	}
}

func TestTriggeredBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ts := tgroups(t, n)
			runAllT(t, ts, func(tg *TGroup) error {
				for round := 0; round < 6; round++ { // > parity depth: exercises the release window
					msg := []byte(fmt.Sprintf("round-%d-payload", round))
					buf := make([]byte, len(msg))
					if tg.Rank() == 0 {
						copy(buf, msg)
					}
					if err := tg.Bcast(buf); err != nil {
						return err
					}
					if !bytes.Equal(buf, msg) {
						return fmt.Errorf("round %d: got %q, want %q", round, buf, msg)
					}
				}
				return nil
			})
		})
	}
}

// TestTriggeredMixedOps interleaves all three collectives over multiple
// generations so the per-class counters advance independently.
func TestTriggeredMixedOps(t *testing.T) {
	const n = 6
	ts := tgroups(t, n)
	runAllT(t, ts, func(tg *TGroup) error {
		for round := 0; round < 4; round++ {
			if err := tg.Barrier(); err != nil {
				return err
			}
			vec := []float64{1}
			if err := tg.AllreduceSum(vec); err != nil {
				return err
			}
			if vec[0] != n {
				return fmt.Errorf("round %d: sum %v, want %v", round, vec[0], n)
			}
			buf := make([]byte, 32)
			if tg.Rank() == 0 {
				for i := range buf {
					buf[i] = byte(round)
				}
			}
			if err := tg.Bcast(buf); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != byte(round) {
					return fmt.Errorf("round %d: bcast byte %d = %d", round, i, buf[i])
				}
			}
		}
		return nil
	})
}

// TestTriggeredOverlap is the offload contract: Start, compute while the
// chain runs on the lanes, Wait. Random per-member compute delays skew
// the ranks so lanes fire in every interleaving.
func TestTriggeredOverlap(t *testing.T) {
	const n = 8
	ts := tgroups(t, n, 2)
	runAllT(t, ts, func(tg *TGroup) error {
		rng := rand.New(rand.NewSource(int64(tg.Rank() + 1)))
		for round := 0; round < 8; round++ {
			vec := []float64{float64(tg.Rank()), float64(round)}
			if err := tg.AllreduceSumStart(vec); err != nil {
				return err
			}
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			if err := tg.AllreduceSumWait(vec); err != nil {
				return err
			}
			if want := float64(n*(n-1)) / 2; vec[0] != want {
				return fmt.Errorf("round %d: %v, want %v", round, vec[0], want)
			}
			if want := float64(round * n); vec[1] != want {
				return fmt.Errorf("round %d elem 1: %v, want %v", round, vec[1], want)
			}
		}
		return nil
	})
}
