package eventq

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

// N consumers, N posts: every consumer gets an event, wherever it is between
// its first Get and its Park when the posts land. With a one-token wake-up,
// two consumers that both found the queue empty and had not parked yet shared
// the token two posts left, and the slower one slept beside its event until
// the next post or its timeout.
func TestNoConsumerStrandedBesideAnEvent(t *testing.T) {
	const consumers = 4
	q := New(2 * consumers)
	var ready, done sync.WaitGroup
	waited := make([]time.Duration, consumers)
	errs := make([]error, consumers)
	for i := 0; i < consumers; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			ready.Done()
			start := time.Now()
			_, errs[i] = q.Poll(2 * time.Second)
			waited[i] = time.Since(start)
		}(i)
	}
	ready.Wait() // running, and anywhere between their first Get and their Park
	for i := 0; i < consumers; i++ {
		q.Post(ev(uint64(i)))
	}
	done.Wait()
	for i := range errs {
		if errs[i] != nil || waited[i] > time.Second {
			t.Errorf("consumer %d: err %v after %v with %d events posted for %d consumers",
				i, errs[i], waited[i], consumers, consumers)
		}
	}
}

// parked counts the waiters on p's list: each has found its condition unmet
// and sleeps once mu is free.
func parked(p *Parker) (n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for w := p.waiters.Load(); w != nil; w = w.next {
		n++
	}
	return n
}

// waitParked returns once n waiters are on p's list.
func waitParked(t *testing.T, p *Parker, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); parked(p) != n; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters parked", parked(p), n)
		}
	}
}

// poller runs Poll (d > 0) or Wait (d == 0) on its own goroutine.
func poller(q *Queue, d time.Duration) <-chan error {
	done := make(chan error, 1)
	go func() {
		var err error
		if d > 0 {
			_, err = q.Poll(d)
		} else {
			_, err = q.Wait()
		}
		done <- err
	}()
	return done
}

// The interleaving step by step, on the parker itself: one Wake reaches
// every waiter — both that have checked and not parked yet, and both parked.
func TestWakeReachesEveryWaiter(t *testing.T) {
	p := NewParker()
	a, b := p.Begin(), p.Begin()
	p.Wake() // one wake-up, two waiters between their check and their Park
	for _, w := range []*Wait{&a, &b} {
		if err := p.Park(w, time.Second); err != nil {
			t.Fatalf("Park after a Wake since the check = %v", err)
		}
	}
	done := make(chan error, 2)
	for _, w := range []Wait{a, b} {
		go func(w Wait) { done <- p.Park(&w, 0) }(w)
	}
	waitParked(t, p, 2)
	p.Wake()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("woken Park = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("one Wake left a parked waiter asleep")
		}
	}
}

// A short Poll parked beside a long one times out on its own deadline, in
// either order of parking, and its timeout does not end the long one.
func TestPollTimesOutOnItsOwnDeadline(t *testing.T) {
	const short = 20 * time.Millisecond
	for _, shortFirst := range []bool{false, true} {
		q := New(4)
		var long, brief <-chan error
		start := time.Now()
		if shortFirst {
			brief = poller(q, short)
			waitParked(t, q.park, 1)
			long = poller(q, time.Minute)
		} else {
			long = poller(q, time.Minute)
			waitParked(t, q.park, 1)
			start = time.Now()
			brief = poller(q, short)
		}
		select {
		case err := <-brief:
			waited := time.Since(start)
			if !errors.Is(err, types.ErrEQEmpty) || waited < short || waited > time.Second {
				t.Errorf("short first %v: a %v Poll returned %v after %v", shortFirst, short, err, waited)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("short first %v: a %v Poll beside a minute-long one never timed out", shortFirst, short)
		}
		waitParked(t, q.park, 1) // the long Poll, woken by the timer or not, is parked again
		q.Post(ev(1))
		if err := <-long; err != nil {
			t.Errorf("short first %v: the long Poll returned %v, want the event", shortFirst, err)
		}
	}
}

// A timer armed for an earlier wait and firing during a later one must not
// end the later one early.
func TestStaleDeadlineEndsNoLaterPoll(t *testing.T) {
	q := New(4)
	for i := 0; i < 100; i++ {
		// Post lands about when the 50µs timeout does: every interleaving of
		// "woken", "fired" and "re-armed" gets exercised over the runs.
		go func() {
			time.Sleep(50 * time.Microsecond)
			q.Post(ev(0))
		}()
		if _, err := q.Poll(50 * time.Microsecond); err != nil {
			if _, err := q.Wait(); err != nil { // timed out first: take the late event
				t.Fatal(err)
			}
		}
		start := time.Now()
		if _, err := q.Poll(5 * time.Millisecond); !errors.Is(err, types.ErrEQEmpty) {
			t.Fatalf("round %d: Poll on an empty queue = %v", i, err)
		}
		if waited := time.Since(start); waited < 5*time.Millisecond {
			t.Fatalf("round %d: a 5ms Poll gave up after %v", i, waited)
		}
	}
}

// Close releases every parked waiter, with a timeout or without.
func TestCloseReleasesEveryParkedWaiter(t *testing.T) {
	q := New(4)
	waiters := []<-chan error{poller(q, 0), poller(q, time.Minute), poller(q, 0)}
	waitParked(t, q.park, len(waiters))
	q.Close()
	for i, w := range waiters {
		select {
		case err := <-w:
			if !errors.Is(err, types.ErrClosed) {
				t.Errorf("waiter %d returned %v, want ErrClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still parked after Close", i)
		}
	}
}

// TestPollAllocs holds every way out of a blocking Poll — woken by a post,
// timed out alone or beside a waiter holding the armed deadline, released by
// Close — to zero allocations once each Parker has a node per waiter. The
// woken case has a Wait, which parks with no deadline, on its other side.
func TestPollAllocs(t *testing.T) {
	const runs = 200

	t.Run("woken", func(t *testing.T) {
		there, back := New(4), New(4)
		defer there.Close()
		go func() { // echo: parks in Wait between rounds, like the peer of a ping-pong
			for {
				if _, err := there.Wait(); err != nil {
					return
				}
				back.Post(ev(0))
			}
		}()
		round := func() {
			there.Post(ev(0))
			if _, err := back.Poll(10 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			round()
		}
		if got := testing.AllocsPerRun(runs, round); got != 0 {
			t.Errorf("a blocking Wait, a blocking Poll and their wake-ups allocate %.2f objects, want 0", got)
		}
	})

	timedOut := func(t *testing.T, q *Queue) {
		expire := func() {
			if _, err := q.Poll(20 * time.Microsecond); !errors.Is(err, types.ErrEQEmpty) {
				t.Fatalf("Poll = %v, want ErrEQEmpty", err)
			}
		}
		for i := 0; i < 50; i++ {
			expire()
		}
		if got := testing.AllocsPerRun(runs, expire); got != 0 {
			t.Errorf("a Poll that times out allocates %.2f objects, want 0", got)
		}
	}
	t.Run("timed out", func(t *testing.T) { timedOut(t, New(4)) })
	t.Run("timed out beside a longer wait", func(t *testing.T) {
		q := New(4)
		long := poller(q, time.Hour) // holds the armed deadline throughout
		waitParked(t, q.park, 1)
		timedOut(t, q)
		q.Close()
		<-long
	})

	t.Run("closed", func(t *testing.T) {
		// A queue closes once, so every run gets its own, made beforehand.
		queues := make([]*Queue, 0, runs+60)
		for len(queues) < cap(queues) {
			queues = append(queues, New(1))
		}
		closing := make(chan *Queue)
		defer close(closing)
		go func() {
			for q := range closing {
				q.Close()
			}
		}()
		next := 0
		closedUnder := func() {
			q := queues[next]
			next++
			closing <- q
			if _, err := q.Poll(10 * time.Second); !errors.Is(err, types.ErrClosed) {
				t.Fatalf("Poll = %v, want ErrClosed", err)
			}
		}
		for i := 0; i < 50; i++ {
			closedUnder()
		}
		if got := testing.AllocsPerRun(runs, closedUnder); got != 0 {
			t.Errorf("a Poll released by Close allocates %.2f objects, want 0", got)
		}
	})
}

// BenchmarkPollWake is the hand-off every blocking completion pays, in the
// shape of the benchmark ladder's eventq.poll_wake_ns: two goroutines bounce
// an event between two queues, each parked in Poll between rounds. One op is
// a round trip, two hand-offs.
func BenchmarkPollWake(b *testing.B) {
	there, back := New(16), New(16)
	defer there.Close()
	go func() { // echo
		for {
			if _, err := there.Poll(time.Minute); err != nil {
				return
			}
			back.Post(ev(0))
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		there.Post(ev(0))
		if _, err := back.Poll(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
