package bufpool

import "testing"

func TestGetSizesAndReuse(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4096, maxPooled} {
		b := Get(n)
		if len(b.Bytes()) != n {
			t.Fatalf("Get(%d): len = %d", n, len(b.Bytes()))
		}
		b.Release()
	}
	// A released buffer of the same class should come back (single
	// goroutine, no GC in between — sync.Pool keeps it in the local
	// shard). Under the race detector sync.Pool drops puts at random to
	// shake out ownership bugs, so allow a few attempts before declaring
	// the pool broken.
	reused := false
	for try := 0; try < 20 && !reused; try++ {
		b := Get(512)
		b.Release()
		b2 := Get(300) // same 512-byte class
		reused = b2.Reused()
		if len(b2.Bytes()) != 300 {
			t.Errorf("buffer len = %d, want 300", len(b2.Bytes()))
		}
		b2.Release()
	}
	if !reused {
		t.Error("expected a pool hit for the just-released size class")
	}
}

func TestOversizedUnpooled(t *testing.T) {
	b := Get(maxPooled + 1)
	if len(b.Bytes()) != maxPooled+1 {
		t.Fatalf("len = %d", len(b.Bytes()))
	}
	if b.Reused() {
		t.Error("oversized buffer cannot be a pool hit")
	}
	b.Release() // must be a safe no-op
	if b.class >= 0 {
		t.Error("oversized buffer must not carry a size class")
	}
}

func TestClassFor(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{0, 0}, {1, 0}, {256, 0}, {257, 1}, {512, 1}, {513, 2}, {maxPooled, numClasses - 1},
	} {
		if got := classFor(tc.n); got != tc.class {
			t.Errorf("classFor(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
}

func TestUsageCounters(t *testing.T) {
	g0, _, p0 := Usage()
	b := Get(64)
	b.Release()
	b = Get(64)
	b.Release()
	g1, h1, p1 := Usage()
	if g1-g0 != 2 || p1-p0 != 2 {
		t.Errorf("gets/puts delta = %d/%d, want 2/2", g1-g0, p1-p0)
	}
	if h1 < 1 {
		t.Errorf("expected at least one recorded hit, have %d", h1)
	}
}

// The queue is FIFO across wrap-around and growth, hands back exactly the
// buffers it was given, and keeps its capacity: once warm, a push/pop cycle
// at any depth it has already seen allocates nothing.
func TestQueueOrderAndAllocs(t *testing.T) {
	var q Queue
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("zero Queue is not empty")
	}
	bufs := make([]*Buf, 40)
	for i := range bufs {
		bufs[i] = Get(1)
	}
	next := 0 // index of the buffer Pop must return next
	push := 0
	for round := 0; round < 5; round++ { // interleave so head wraps while the ring grows
		for i := 0; i < 8; i++ {
			q.Push(bufs[push])
			push++
		}
		for i := 0; i < 3; i++ {
			if q.Pop() != bufs[next] {
				t.Fatalf("pop %d out of order", next)
			}
			next++
		}
	}
	if q.Len() != push-next {
		t.Fatalf("Len = %d, want %d", q.Len(), push-next)
	}
	for ; next < push; next++ {
		if q.Pop() != bufs[next] {
			t.Fatalf("pop %d out of order", next)
		}
	}
	if q.Pop() != nil {
		t.Fatal("drained queue returned a buffer")
	}
	for _, s := range q.ring {
		if s != nil {
			t.Fatal("a popped slot still pins its buffer")
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		q.Push(bufs[0])
		q.Push(bufs[1])
		q.Pop()
		q.Pop()
	}); n != 0 {
		t.Fatalf("warm push/pop allocates %v times", n)
	}
	for _, b := range bufs {
		b.Release()
	}
}

// A buffer goes back to the pool with its last reference, not before, and
// Usage counts it once however many references it had.
func TestRetainReleaseBalance(t *testing.T) {
	g0, _, p0 := Usage()
	b := Get(1000)
	copy(b.Bytes(), "shared")
	refs := []*Buf{b, b.Retain(), b.Retain()}
	if refs[1] != b || refs[2] != b {
		t.Fatal("Retain returned another buffer")
	}
	for i, r := range refs {
		if g, _, p := Usage(); g-g0 != 1 || p != p0 {
			t.Fatalf("with %d of 3 references released: gets/puts delta = %d/%d, want 1/0", i, g-g0, p-p0)
		}
		if string(r.Bytes()[:6]) != "shared" {
			t.Fatalf("reference %d no longer reads the buffer's bytes", i)
		}
		r.Release()
	}
	if g, _, p := Usage(); g-g0 != 1 || p-p0 != 1 {
		t.Fatalf("after the last release: gets/puts delta = %d/%d, want 1/1", g-g0, p-p0)
	}
	var none *Buf
	if none.Retain() != nil {
		t.Fatal("Retain of nil is not nil")
	}
	none.Release()
}

// A Release too many would pool one buffer twice, and a Retain without a
// live reference would share a buffer that may be somebody else's by now:
// both panic, naming the call and the buffer's class.
func TestReferenceCountViolationsPanic(t *testing.T) {
	violation := func(t *testing.T, want string, f func()) {
		t.Helper()
		_, _, p0 := Usage()
		defer func() {
			err, _ := recover().(error)
			if err == nil || err.Error() != want {
				t.Errorf("panic value %v, want %q", err, want)
			}
			if _, _, p := Usage(); p != p0 {
				t.Errorf("the refused call still moved %d buffers into the pool", p-p0)
			}
		}()
		f()
	}
	for _, tc := range []struct {
		name  string
		n     int
		class string
	}{
		{"pooled", 300, "a 512-byte-class buffer"},
		{"oversized", maxPooled + 1, "an unpooled buffer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := Get(tc.n)
			b.Release()
			violation(t, "bufpool: Release of "+tc.class+" with no reference left", b.Release)
			b = Get(tc.n)
			shared := b.Retain()
			b.Release()
			shared.Release()
			violation(t, "bufpool: Retain of "+tc.class+" with no reference left", func() { shared.Retain() })
		})
	}
}
