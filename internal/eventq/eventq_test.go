package eventq

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/types"
)

func ev(seqHint uint64) Event {
	return Event{Type: types.EventPut, MLength: seqHint}
}

func TestEmptyGet(t *testing.T) {
	q := New(4)
	if _, err := q.Get(); !errors.Is(err, types.ErrEQEmpty) {
		t.Errorf("Get on empty = %v, want ErrEQEmpty", err)
	}
}

func TestFIFOOrder(t *testing.T) {
	q := New(8)
	for i := uint64(0); i < 5; i++ {
		q.Post(ev(i))
	}
	for i := uint64(0); i < 5; i++ {
		got, err := q.Get()
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.MLength != i {
			t.Errorf("event %d out of order: got %d", i, got.MLength)
		}
		if got.Sequence != i {
			t.Errorf("sequence = %d, want %d", got.Sequence, i)
		}
	}
}

func TestCircularOverrun(t *testing.T) {
	q := New(4)
	for i := uint64(0); i < 10; i++ { // overruns by 6
		q.Post(ev(i))
	}
	got, err := q.Get()
	if !errors.Is(err, types.ErrEQDropped) {
		t.Fatalf("Get after overrun = %v, want ErrEQDropped", err)
	}
	if got.MLength != 6 {
		t.Errorf("oldest surviving event = %d, want 6", got.MLength)
	}
	// After resync the remaining events come out cleanly.
	for i := uint64(7); i < 10; i++ {
		got, err := q.Get()
		if err != nil {
			t.Fatalf("Get after resync: %v", err)
		}
		if got.MLength != i {
			t.Errorf("got %d, want %d", got.MLength, i)
		}
	}
	if _, err := q.Get(); !errors.Is(err, types.ErrEQEmpty) {
		t.Error("queue should be empty after drain")
	}
}

func TestPending(t *testing.T) {
	q := New(4)
	if q.Pending() != 0 {
		t.Error("new queue pending != 0")
	}
	q.Post(ev(0))
	q.Post(ev(1))
	if q.Pending() != 2 {
		t.Errorf("pending = %d, want 2", q.Pending())
	}
	for i := 0; i < 100; i++ {
		q.Post(ev(uint64(i)))
	}
	if q.Pending() != 4 {
		t.Errorf("pending after overrun = %d, want cap 4", q.Pending())
	}
}

func TestWaitBlocksUntilPost(t *testing.T) {
	q := New(4)
	done := make(chan Event, 1)
	go func() {
		got, err := q.Wait()
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		done <- got
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter block
	q.Post(ev(42))
	select {
	case got := <-done:
		if got.MLength != 42 {
			t.Errorf("waited event = %d, want 42", got.MLength)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake")
	}
}

func TestPollTimeout(t *testing.T) {
	q := New(4)
	start := time.Now()
	_, err := q.Poll(20 * time.Millisecond)
	if !errors.Is(err, types.ErrEQEmpty) {
		t.Errorf("Poll = %v, want ErrEQEmpty", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("Poll returned before timeout")
	}
}

func TestPollImmediate(t *testing.T) {
	q := New(4)
	q.Post(ev(7))
	got, err := q.Poll(time.Second)
	if err != nil || got.MLength != 7 {
		t.Errorf("Poll = %v/%v", got.MLength, err)
	}
}

func TestPollNonPositiveIsGet(t *testing.T) {
	q := New(4)
	if _, err := q.Poll(0); !errors.Is(err, types.ErrEQEmpty) {
		t.Errorf("Poll(0) = %v, want ErrEQEmpty", err)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	q := New(4)
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := q.Wait()
			errs <- err
		}()
	}
	time.Sleep(5 * time.Millisecond)
	q.Close()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, types.ErrClosed) {
				t.Errorf("Wait after close = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("waiter not woken by Close")
		}
	}
}

func TestCloseDrainsPendingFirst(t *testing.T) {
	q := New(4)
	q.Post(ev(1))
	q.Close()
	if got, err := q.Get(); err != nil || got.MLength != 1 {
		t.Errorf("Get pending after close = %v/%v", got.MLength, err)
	}
	if _, err := q.Get(); !errors.Is(err, types.ErrClosed) {
		t.Errorf("Get drained after close = %v, want ErrClosed", err)
	}
}

func TestPostAfterCloseIgnored(t *testing.T) {
	q := New(4)
	q.Close()
	q.Post(ev(1))
	if q.Pending() != 0 {
		t.Error("post after close was recorded")
	}
}

func TestTinyQueueSize(t *testing.T) {
	q := New(0) // raised to 1
	if q.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", q.Cap())
	}
	q.Post(ev(0))
	q.Post(ev(1)) // overwrites
	got, err := q.Get()
	if !errors.Is(err, types.ErrEQDropped) || got.MLength != 1 {
		t.Errorf("Get = %d/%v, want 1/ErrEQDropped", got.MLength, err)
	}
}

// Property: for any interleaving of n posts then full drain, the consumer
// sees the LAST min(n, cap) events in order.
func TestOverrunKeepsNewestProperty(t *testing.T) {
	f := func(nPosts uint8, capHint uint8) bool {
		c := int(capHint%16) + 1
		n := uint64(nPosts)
		q := New(c)
		for i := uint64(0); i < n; i++ {
			q.Post(ev(i))
		}
		want := n
		if want > uint64(c) {
			want = uint64(c)
		}
		first := n - want
		for i := uint64(0); i < want; i++ {
			got, err := q.Get()
			if err != nil && !errors.Is(err, types.ErrEQDropped) {
				return false
			}
			if got.MLength != first+i {
				return false
			}
		}
		_, err := q.Get()
		return errors.Is(err, types.ErrEQEmpty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := New(1024)
	const producers, each = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.Post(ev(uint64(i)))
			}
		}()
	}
	// The consumer may be lapped (circular overwrite), so it tracks the
	// highest sequence seen rather than a raw count; sequences are assigned
	// in post order, so seeing the last one means the queue drained.
	done := make(chan uint64, 1)
	go func() {
		var maxSeq uint64
		for maxSeq < uint64(producers*each-1) {
			ev, err := q.Wait()
			if err != nil && !errors.Is(err, types.ErrEQDropped) {
				break
			}
			if ev.Sequence > maxSeq {
				maxSeq = ev.Sequence
			}
		}
		done <- maxSeq
	}()
	wg.Wait()
	select {
	case maxSeq := <-done:
		if maxSeq != uint64(producers*each-1) {
			t.Errorf("last sequence = %d, want %d", maxSeq, producers*each-1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer stalled")
	}
}
