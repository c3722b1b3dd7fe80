package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/types"
)

// waitParked returns once n goroutines are blocked inside eventq's Parker —
// on its channel, not on its mutex — so a test can order its waiters
// without sleeping. It reads goroutine stacks rather than Parker internals:
// what it observes is where a waiter sleeps, whatever the Parker looks like.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		stacks := buf[:runtime.Stack(buf, true)]
		parked := 0
		for _, g := range bytes.Split(stacks, []byte("\n\n")) {
			blocked := bytes.Contains(g, []byte("[chan receive")) || bytes.Contains(g, []byte("[select"))
			if blocked && bytes.Contains(g, []byte("eventq.(*Parker).Park(")) {
				parked++
			}
		}
		if parked == n {
			return
		}
	}
	t.Fatalf("%d waiters never parked", n)
}

// ctWaiter runs CTWait on its own goroutine and reports what it returned.
func ctWaiter(s *State, ct types.Handle, threshold uint64, d time.Duration) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := s.CTWait(ct, threshold, d)
		done <- err
	}()
	return done
}

// Two CTWaits on one counter, thresholds 1 and 2, and one increment: the
// threshold-1 waiter returns whichever of the two is woken first. With a
// one-token wake-up the threshold-2 waiter could take the token, find its
// threshold unmet and park again, stranding the other beside a met threshold.
func TestCTWaitStrandsNoWaiter(t *testing.T) {
	for _, first := range []uint64{2, 1} {
		s := newState(t, aliceID)
		ct, err := s.CTAlloc()
		if err != nil {
			t.Fatal(err)
		}
		waiters := map[uint64]<-chan error{}
		for i, threshold := range []uint64{first, 3 - first} {
			waiters[threshold] = ctWaiter(s, ct, threshold, 2*time.Second)
			waitParked(t, i+1)
		}
		if err := s.CTInc(ct, types.CTValue{Success: 1}); err != nil {
			t.Fatal(err)
		}
		if err := <-waiters[1]; err != nil {
			t.Errorf("threshold-%d waiter parked first: threshold-1 waiter returned %v", first, err)
		}
		if err := s.CTInc(ct, types.CTValue{Success: 1}); err != nil {
			t.Fatal(err)
		}
		if err := <-waiters[2]; err != nil {
			t.Errorf("threshold-2 waiter returned %v after the second increment", err)
		}
		s.Close()
	}
}

// Freeing a counter, or closing the state, releases every CTWait parked on
// it — with a timeout or without — with ErrClosed.
func TestCloseReleasesEveryCTWait(t *testing.T) {
	for _, how := range []string{"CTFree", "State.Close"} {
		s := newState(t, aliceID)
		ct, err := s.CTAlloc()
		if err != nil {
			t.Fatal(err)
		}
		waiters := []<-chan error{ctWaiter(s, ct, 1, 0), ctWaiter(s, ct, 5, time.Minute), ctWaiter(s, ct, 1, 0)}
		waitParked(t, len(waiters))
		if how == "CTFree" {
			if err := s.CTFree(ct); err != nil {
				t.Fatal(err)
			}
		} else {
			s.Close()
		}
		for i, w := range waiters {
			select {
			case err := <-w:
				if !errors.Is(err, types.ErrClosed) {
					t.Errorf("%s: waiter %d returned %v, want ErrClosed", how, i, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: waiter %d still parked", how, i)
			}
		}
		s.Close()
	}
}

// A CTWait that blocks and is woken by an increment allocates nothing: two
// goroutines bounce an increment between two counters, each parking in
// CTWait with a timeout between rounds, like the two sides of a ping-pong.
func TestCTWaitAllocs(t *testing.T) {
	s := newState(t, aliceID)
	defer s.Close()
	there, err := s.CTAlloc()
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.CTAlloc()
	if err != nil {
		t.Fatal(err)
	}
	one := types.CTValue{Success: 1}
	go func() { // echo
		for n := uint64(1); ; n++ {
			if _, err := s.CTWait(there, n, 10*time.Second); err != nil {
				return
			}
			_ = s.CTInc(back, one)
		}
	}()
	var n uint64
	round := func() {
		n++
		_ = s.CTInc(there, one)
		if _, err := s.CTWait(back, n, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("two blocking CTWaits and their wake-ups allocate %.2f objects, want 0", got)
	}
}
