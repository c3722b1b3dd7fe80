package loopback

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/transport"
	"repro/internal/types"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

// collect returns a handler that appends messages to a guarded slice.
func collect() (transport.Handler, func() []string) {
	var mu sync.Mutex
	var got []string
	h := func(src types.NID, msg []byte) {
		mu.Lock()
		got = append(got, fmt.Sprintf("%d:%s", src, msg))
		mu.Unlock()
	}
	return h, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got...)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBasicDelivery(t *testing.T) {
	n := New()
	defer n.Close()
	h, got := collect()
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, h); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) == 1 })
	if got()[0] != "1:hello" {
		t.Errorf("got %q", got()[0])
	}
}

func TestOrderedDelivery(t *testing.T) {
	n := New()
	defer n.Close()
	h, got := collect()
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, h); err != nil {
		t.Fatal(err)
	}
	const count = 1000
	for i := 0; i < count; i++ {
		if err := a.Send(2, []byte(fmt.Sprintf("%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(got()) == count })
	for i, m := range got() {
		if want := fmt.Sprintf("1:%06d", i); m != want {
			t.Fatalf("message %d = %q, want %q", i, m, want)
		}
	}
}

func TestDuplicateAttachRejected(t *testing.T) {
	n := New()
	defer n.Close()
	if _, err := n.Attach(1, func(types.NID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(1, func(types.NID, []byte) {}); err == nil {
		t.Error("duplicate attach accepted")
	}
}

func TestNilHandlerRejected(t *testing.T) {
	n := New()
	defer n.Close()
	if _, err := n.Attach(1, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestSendToUnknownNode(t *testing.T) {
	n := New()
	defer n.Close()
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(99, []byte("x")); !errors.Is(err, types.ErrProcessNotFound) {
		t.Errorf("Send to unknown = %v", err)
	}
}

func TestSelfSend(t *testing.T) {
	n := New()
	defer n.Close()
	h, got := collect()
	a, err := n.Attach(1, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, []byte("me")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) == 1 })
}

// A handler that sends (e.g. the delivery engine emitting an ack) must not
// deadlock, even when two nodes ping-pong through their handlers.
func TestReentrantHandlerSend(t *testing.T) {
	n := New()
	defer n.Close()
	var hits atomic.Int32
	var a, b transport.Endpoint
	var err error
	a, err = n.Attach(1, func(src types.NID, msg []byte) {
		hits.Add(1)
		if msg[0] < 10 {
			if err := a.Send(2, []byte{msg[0] + 1}); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err = n.Attach(2, func(src types.NID, msg []byte) {
		hits.Add(1)
		if msg[0] < 10 {
			if err := b.Send(1, []byte{msg[0] + 1}); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte{0}); err != nil {
		t.Fatal(err)
	}
	// Values 0..10 bounce between the two handlers: 11 deliveries total.
	waitFor(t, func() bool { return hits.Load() == 11 })
}

func TestMessageIsolation(t *testing.T) {
	// The transport must copy: mutating the sent buffer afterwards must
	// not affect what the receiver sees.
	n := New()
	defer n.Close()
	h, got := collect()
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, h); err != nil {
		t.Fatal(err)
	}
	buf := []byte("aaaa")
	if err := a.Send(2, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "bbbb")
	waitFor(t, func() bool { return len(got()) == 1 })
	if got()[0] != "1:aaaa" {
		t.Errorf("receiver saw mutated buffer: %q", got()[0])
	}
}

func TestEndpointClose(t *testing.T) {
	n := New()
	defer n.Close()
	h, _ := collect()
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(2, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); !errors.Is(err, types.ErrProcessNotFound) {
		t.Errorf("Send to closed endpoint = %v", err)
	}
	// NID can be reattached after close.
	if _, err := n.Attach(2, h); err != nil {
		t.Errorf("reattach after close: %v", err)
	}
}

func TestNetworkClose(t *testing.T) {
	n := New()
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, []byte("x")); !errors.Is(err, types.ErrClosed) {
		t.Errorf("Send after network close = %v", err)
	}
	if _, err := n.Attach(3, func(types.NID, []byte) {}); !errors.Is(err, types.ErrClosed) {
		t.Errorf("Attach after close = %v", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := New()
	defer n.Close()
	var mu sync.Mutex
	perSrc := map[types.NID][]int{}
	_, err := n.Attach(0, func(src types.NID, msg []byte) {
		mu.Lock()
		perSrc[src] = append(perSrc[src], int(msg[0])<<8|int(msg[1]))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	const senders, each = 4, 300
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		ep, err := n.Attach(types.NID(s), func(types.NID, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ep.Send(0, []byte{byte(i >> 8), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, v := range perSrc {
			total += len(v)
		}
		return total == senders*each
	})
	// Per-pair ordering must hold even with interleaved senders.
	mu.Lock()
	defer mu.Unlock()
	for src, seq := range perSrc {
		for i, v := range seq {
			if v != i {
				t.Fatalf("src %d message %d = %d (out of order)", src, i, v)
			}
		}
	}
}
