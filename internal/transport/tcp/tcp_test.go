package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/types"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

type sink struct {
	mu   sync.Mutex
	msgs [][]byte
	srcs []types.NID
}

func (s *sink) handler(src types.NID, msg []byte) {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	s.mu.Lock()
	s.msgs = append(s.msgs, cp)
	s.srcs = append(s.srcs, src)
	s.mu.Unlock()
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBasicSend(t *testing.T) {
	n := New()
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.count() == 1 })
	s.mu.Lock()
	defer s.mu.Unlock()
	if string(s.msgs[0]) != "over tcp" || s.srcs[0] != 1 {
		t.Errorf("got %q from %d", s.msgs[0], s.srcs[0])
	}
}

func TestOrderingOverOneConnection(t *testing.T) {
	n := New()
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	const count = 500
	for i := 0; i < count; i++ {
		if err := a.Send(2, []byte(fmt.Sprintf("%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s.count() == count })
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, m := range s.msgs {
		if want := fmt.Sprintf("%05d", i); string(m) != want {
			t.Fatalf("message %d = %q, want %q", i, m, want)
		}
	}
}

func TestLargeMessage(t *testing.T) {
	n := New()
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0x5A}, 4<<20)
	if err := a.Send(2, big); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.count() == 1 })
	s.mu.Lock()
	defer s.mu.Unlock()
	if !bytes.Equal(s.msgs[0], big) {
		t.Error("large message corrupted")
	}
}

func TestUnknownDestination(t *testing.T) {
	n := New()
	defer n.Close()
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(42, []byte("x")); !errors.Is(err, types.ErrProcessNotFound) {
		t.Errorf("send to unknown = %v", err)
	}
}

func TestDuplicateAttach(t *testing.T) {
	n := New()
	defer n.Close()
	if _, err := n.Attach(1, func(types.NID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(1, func(types.NID, []byte) {}); err == nil {
		t.Error("duplicate attach accepted")
	}
}

func TestBidirectional(t *testing.T) {
	n := New()
	defer n.Close()
	var sa, sb sink
	a, err := n.Attach(1, sa.handler)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(2, sb.handler)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sb.count() == 1 })
	if err := b.Send(1, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sa.count() == 1 })
}

func TestConcurrentSendersToOneNode(t *testing.T) {
	n := New()
	defer n.Close()
	var s sink
	if _, err := n.Attach(0, s.handler); err != nil {
		t.Fatal(err)
	}
	const senders, each = 4, 200
	var wg sync.WaitGroup
	for p := 1; p <= senders; p++ {
		ep, err := n.Attach(types.NID(p), func(types.NID, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ep.Send(0, []byte{byte(p), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	waitFor(t, func() bool { return s.count() == senders*each })
	// Per-source ordering.
	s.mu.Lock()
	defer s.mu.Unlock()
	next := map[byte]byte{}
	for _, m := range s.msgs {
		if m[1] != next[m[0]] {
			t.Fatalf("source %d out of order: got %d want %d", m[0], m[1], next[m[0]])
		}
		next[m[0]]++
	}
}

func TestSendAfterEndpointClose(t *testing.T) {
	n := New()
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.count() == 1 })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("y")); !errors.Is(err, types.ErrClosed) {
		t.Errorf("send after close = %v", err)
	}
}

func TestNetworkCloseIdempotent(t *testing.T) {
	n := New()
	if _, err := n.Attach(1, func(types.NID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, func(types.NID, []byte) {}); !errors.Is(err, types.ErrClosed) {
		t.Errorf("attach after close = %v", err)
	}
}

func TestRegisterExternalAddress(t *testing.T) {
	// Two separate Network registries, linked by Register — simulates two
	// OS processes.
	n1 := New()
	defer n1.Close()
	n2 := New()
	defer n2.Close()
	var s sink
	if _, err := n2.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	addr, ok := n2.lookup(2)
	if !ok {
		t.Fatal("no addr for node 2")
	}
	n1.Register(2, addr)
	a, err := n1.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("cross-registry")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.count() == 1 })
}

func TestStaticAddressing(t *testing.T) {
	// Two separate Network values with pinned listen addresses — the
	// cross-OS-process deployment (cmd/ptlnode) in miniature.
	const (
		addr1 = "127.0.0.1:19701"
		addr2 = "127.0.0.1:19702"
	)
	n1 := NewStatic(1, addr1, map[types.NID]string{2: addr2})
	defer n1.Close()
	n2 := NewStatic(2, addr2, map[types.NID]string{1: addr1})
	defer n2.Close()

	var s sink
	a, err := n1.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("static route")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.count() == 1 })
	s.mu.Lock()
	defer s.mu.Unlock()
	if string(s.msgs[0]) != "static route" || s.srcs[0] != 1 {
		t.Errorf("got %q from %d", s.msgs[0], s.srcs[0])
	}
}

func TestStaticListenConflict(t *testing.T) {
	const addr = "127.0.0.1:19711"
	n1 := NewStatic(1, addr, nil)
	defer n1.Close()
	if _, err := n1.Attach(1, func(types.NID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	n2 := NewStatic(2, addr, nil)
	defer n2.Close()
	if _, err := n2.Attach(2, func(types.NID, []byte) {}); err == nil {
		t.Error("second listener on the same address accepted")
	}
}
