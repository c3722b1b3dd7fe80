package simnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

type sink struct {
	mu   sync.Mutex
	pkts []string
}

func (s *sink) handler(src types.NID, pkt []byte) {
	s.mu.Lock()
	s.pkts = append(s.pkts, string(pkt))
	s.mu.Unlock()
}

func (s *sink) got() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.pkts...)
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

func TestInstantDelivery(t *testing.T) {
	n := New(Instant())
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		// Header and payload arrive as one packet, gathered by the link.
		pkt := []byte(fmt.Sprintf("%03d", i))
		if err := a.SendPacket(2, pkt[:1], pkt[1:]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(s.got()) == 100 })
	for i, p := range s.got() {
		if p != fmt.Sprintf("%03d", i) {
			t.Fatalf("packet %d = %q (out of order on clean fabric)", i, p)
		}
	}
	if n.Stats().Delivered.Load() != 100 || n.Stats().Lost.Load() != 0 {
		t.Errorf("stats: %+v", n.Stats())
	}
}

func TestMTUEnforced(t *testing.T) {
	n := New(Config{MTU: 64})
	defer n.Close()
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendPacket(2, make([]byte, 20), make([]byte, 45)); err == nil {
		t.Error("oversized packet accepted")
	}
	if err := a.SendPacket(1, make([]byte, 64), nil); err != nil {
		t.Errorf("MTU-sized packet rejected: %v", err)
	}
}

func TestLossInjection(t *testing.T) {
	n := New(Config{MTU: 64, LossRate: 0.5, Seed: 7})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	const count = 400
	for i := 0; i < count; i++ {
		if err := a.SendPacket(2, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		return n.Stats().Delivered.Load()+n.Stats().Lost.Load() == count
	})
	lost := n.Stats().Lost.Load()
	if lost < count/4 || lost > 3*count/4 {
		t.Errorf("lost %d of %d with 50%% loss", lost, count)
	}
}

func TestDuplicationInjection(t *testing.T) {
	n := New(Config{MTU: 64, DupRate: 1.0, Seed: 1})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.SendPacket(2, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(s.got()) == 20 })
	if n.Stats().Duplicated.Load() != 10 {
		t.Errorf("dups = %d, want 10", n.Stats().Duplicated.Load())
	}
}

func TestReorderInjection(t *testing.T) {
	n := New(Config{MTU: 64, ReorderRate: 0.5, Seed: 3})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.SendPacket(2, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return n.Stats().Reordered.Load() > 0 && len(s.got()) >= count-1 })
	// Verify at least one inversion actually reached the receiver.
	inversions := 0
	prev := -1
	for _, p := range s.got() {
		v := int([]byte(p)[0])
		if v < prev {
			inversions++
		}
		prev = v
	}
	if inversions == 0 {
		t.Error("no inversions observed despite reorder injection")
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := New(Config{MTU: 64, Latency: 30 * time.Millisecond})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.SendPacket(2, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(s.got()) == 1 })
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("delivered after %v, want ≥ ~30ms", d)
	}
}

func TestBandwidthPacing(t *testing.T) {
	// 1 MB at 10 MB/s should take ~100 ms.
	n := New(Config{MTU: 65536, Bandwidth: 10e6})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const packets = 16 // 16 × 64 KB = 1 MB
	for i := 0; i < packets; i++ {
		if err := a.SendPacket(2, make([]byte, 65536), nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(s.got()) == packets })
	d := time.Since(start)
	if d < 70*time.Millisecond {
		t.Errorf("1 MB at 10 MB/s delivered in %v — pacing not applied", d)
	}
	if d > 500*time.Millisecond {
		t.Errorf("pacing far too slow: %v", d)
	}
}

func TestTailDrop(t *testing.T) {
	// A slow link with a tiny queue must tail-drop under a burst.
	n := New(Config{MTU: 65536, Bandwidth: 1e6, QueueCap: 2})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := a.SendPacket(2, make([]byte, 32768), nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		st := n.Stats()
		return st.Delivered.Load()+st.Lost.Load() == 50
	})
	if n.Stats().TailDrops.Load() == 0 {
		t.Error("no tail drops under burst on a bounded queue")
	}
}

func TestDetachedDestination(t *testing.T) {
	n := New(Instant())
	defer n.Close()
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	// Destination never attached: packet vanishes (counted lost), like a
	// real fabric. No error to the sender.
	if err := a.SendPacket(9, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return n.Stats().Lost.Load() == 1 })
}

func TestCloseEndpointStopsDelivery(t *testing.T) {
	n := New(Instant())
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(2, s.handler)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendPacket(2, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return n.Stats().Lost.Load() == 1 })
	if len(s.got()) != 0 {
		t.Error("delivery to closed endpoint")
	}
	if err := b.SendPacket(1, []byte("x"), nil); !errors.Is(err, types.ErrClosed) {
		t.Errorf("send from closed endpoint = %v", err)
	}
}

func TestNetworkCloseIdempotent(t *testing.T) {
	n := New(Instant())
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

func TestPerPairIsolation(t *testing.T) {
	// Packets between different pairs must not block each other: a slow
	// bulk transfer 1→2 must not delay 3→4 on an uncongested fabric.
	n := New(Config{MTU: 65536, Bandwidth: 2e6})
	defer n.Close()
	var bulk, small sink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, bulk.handler); err != nil {
		t.Fatal(err)
	}
	c, err := n.Attach(3, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(4, small.handler); err != nil {
		t.Fatal(err)
	}
	// 1 MB bulk at 2 MB/s ≈ 500 ms of occupancy on link 1→2.
	for i := 0; i < 16; i++ {
		if err := a.SendPacket(2, make([]byte, 65536), nil); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := c.SendPacket(4, []byte("quick"), nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(small.got()) == 1 })
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("independent pair delayed %v by bulk traffic", d)
	}
}

// Reproducibility: the same seed must produce the same fault pattern —
// the property every "repro" experiment in this repository leans on.
func TestSeedDeterminism(t *testing.T) {
	run := func() (delivered, lost int64) {
		n := New(Config{MTU: 64, LossRate: 0.3, Seed: 1234})
		defer n.Close()
		var s sink
		a, err := n.Attach(1, func(types.NID, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach(2, s.handler); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := a.SendPacket(2, []byte{byte(i)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, func() bool {
			return n.Stats().Delivered.Load()+n.Stats().Lost.Load() == 200
		})
		return n.Stats().Delivered.Load(), n.Stats().Lost.Load()
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Errorf("same seed diverged: %d/%d vs %d/%d", d1, l1, d2, l2)
	}
	if l1 == 0 {
		t.Error("no losses at 30% rate")
	}
}
