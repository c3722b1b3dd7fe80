package eventq

import (
	"sync"
	"testing"

	"repro/internal/types"
)

func TestPostIfSpace(t *testing.T) {
	q := New(2)
	if !q.PostIfSpace(Event{MLength: 1}) {
		t.Fatal("post into empty queue refused")
	}
	if !q.PostIfSpace(Event{MLength: 2}) {
		t.Fatal("post into half-full queue refused")
	}
	if q.PostIfSpace(Event{MLength: 3}) {
		t.Fatal("post into full queue accepted")
	}
	ev, err := q.Get()
	if err != nil || ev.MLength != 1 {
		t.Fatalf("Get = %v, %v", ev.MLength, err)
	}
	if !q.PostIfSpace(Event{MLength: 4}) {
		t.Fatal("post after drain refused")
	}
	for _, want := range []uint64{2, 4} {
		ev, err := q.Get()
		if err != nil || ev.MLength != want {
			t.Fatalf("Get = %v, %v; want %d", ev.MLength, err, want)
		}
	}
}

// TestPostIfSpaceLostSpaceInterleaving is the TOCTOU regression test: with
// a space check apart from the post, two producers racing for the queue's
// single free slot can both pass the check, and the loser overwrites an
// unconsumed event (the consumer sees ErrEQDropped). PostIfSpace must admit
// exactly one and never overrun.
func TestPostIfSpaceLostSpaceInterleaving(t *testing.T) {
	const rounds = 2000
	for r := 0; r < rounds; r++ {
		q := New(2)
		q.Post(Event{}) // exactly one slot left
		var wg sync.WaitGroup
		results := make([]bool, 2)
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = q.PostIfSpace(Event{})
			}(i)
		}
		wg.Wait()
		if results[0] == results[1] {
			t.Fatalf("round %d: PostIfSpace results %v, want exactly one success", r, results)
		}
		for {
			_, err := q.Get()
			if err == types.ErrEQEmpty {
				break
			}
			if err == types.ErrEQDropped {
				t.Fatalf("round %d: queue overran — space was lost to the race", r)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPostIfSpaceClosed(t *testing.T) {
	q := New(1)
	q.Close()
	// Matches Post's closed semantics: the event is silently discarded,
	// not reported as a full queue.
	if !q.PostIfSpace(Event{}) {
		t.Fatal("PostIfSpace on closed queue reported full")
	}
	if _, err := q.Get(); err != types.ErrClosed {
		t.Fatalf("Get after close = %v, want ErrClosed", err)
	}
}

// TestConcurrentPostUniqueSequences posts from many producers: every post
// must land in a distinct slot with a distinct sequence number.
func TestConcurrentPostUniqueSequences(t *testing.T) {
	const producers = 8
	const per = 500
	q := New(producers * per)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Post(Event{Initiator: types.ProcessID{NID: types.NID(p), PID: types.PID(i)}})
			}
		}(p)
	}
	wg.Wait()
	seen := make(map[uint64]bool, producers*per)
	for i := 0; i < producers*per; i++ {
		ev, err := q.Get()
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if seen[ev.Sequence] {
			t.Fatalf("duplicate sequence %d", ev.Sequence)
		}
		seen[ev.Sequence] = true
	}
	if _, err := q.Get(); err != types.ErrEQEmpty {
		t.Fatalf("queue not empty after drain: %v", err)
	}
}

// TestConcurrentOverrun hammers a tiny queue through the overwrite path
// with concurrent producers and checks the invariants: the
// consumer is told about the overrun exactly once, surviving events come
// out in ascending sequence order, and exactly capacity events survive.
func TestConcurrentOverrun(t *testing.T) {
	const producers = 4
	const per = 1000
	q := New(4)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Post(Event{})
			}
		}()
	}
	wg.Wait()
	ev, err := q.Get()
	if err != types.ErrEQDropped {
		t.Fatalf("first Get after overrun = %v, want ErrEQDropped", err)
	}
	prev := ev.Sequence
	count := 1
	for {
		ev, err := q.Get()
		if err == types.ErrEQEmpty {
			break
		}
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if ev.Sequence <= prev {
			t.Fatalf("sequence went backwards: %d after %d", ev.Sequence, prev)
		}
		prev = ev.Sequence
		count++
	}
	if count != q.Cap() {
		t.Fatalf("survivors = %d, want %d", count, q.Cap())
	}
}
