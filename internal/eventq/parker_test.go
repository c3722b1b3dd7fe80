package eventq

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/types"
)

// One wake-up token must serve any number of consumers: a consumer that
// leaves with events still pending passes the token on. Without that, two
// consumers that both found the queue empty and had not parked yet shared the
// single token two posts left, and the slower one slept beside its event until
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

// The same interleaving step by step, on the parker itself: both consumers
// have found the queue empty and neither has parked when two posts arrive.
func TestEndPassesTheTokenOn(t *testing.T) {
	q := New(4)
	var a, b Wait
	q.Post(ev(1))
	q.Post(ev(2)) // finds the first post's token still pending: one token for two events
	if err := q.park.Park(&a, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Get(); err != nil {
		t.Fatal(err)
	}
	q.park.End(&a, q.Pending() > 0) // how Queue.wait leaves
	start := time.Now()
	if err := q.park.Park(&b, 2*time.Second); err != nil || time.Since(start) > time.Second {
		t.Fatalf("second consumer parked beside a pending event: err %v after %v", err, time.Since(start))
	}
}

// A timeout that fired while the consumer was being woken must not leak into
// the pooled timer's next use as an early expiry.
func TestPooledTimeoutStartsClean(t *testing.T) {
	q := New(4)
	for i := 0; i < 100; i++ {
		// Post lands about when the 50µs timeout does: every interleaving of
		// "woken", "fired" and "stopped" gets exercised over the runs.
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

// TestPollAllocs holds every way out of a blocking Poll — woken by a post,
// timed out, released by Close — to zero allocations once the timeout pool is
// warm: what is left of a completion wait is two timer-heap operations.
func TestPollAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const runs = 200

	t.Run("woken", func(t *testing.T) {
		there, back := New(4), New(4)
		defer there.Close()
		go func() { // echo: parks in Poll between rounds, like the peer of a ping-pong
			for {
				if _, err := there.Poll(10 * time.Second); err != nil {
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
			t.Errorf("two blocking Polls and their wake-ups allocate %.2f objects, want 0", got)
		}
	})

	t.Run("timed out", func(t *testing.T) {
		q := New(4)
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
