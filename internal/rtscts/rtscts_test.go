package rtscts

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/obs/metrics"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

type msgSink struct {
	mu   sync.Mutex
	msgs [][]byte
}

func (s *msgSink) handler(src types.NID, msg []byte) {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	s.mu.Lock()
	s.msgs = append(s.msgs, cp)
	s.mu.Unlock()
}

func (s *msgSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *msgSink) get(i int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.msgs[i]
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// attachSim attaches to a simulated fabric with a borrowing handler, the
// way Network.Attach does.
func attachSim(net *simnet.Network, nid types.NID, cfg Config, h transport.Handler) (*Conn, error) {
	return Attach(simPacketNetwork{net}, nid, cfg, transport.Borrow(h))
}

// pairOn builds two reliable endpoints on a fabric.
func pairOn(t *testing.T, cfg simnet.Config, rcfg Config) (*Conn, *Conn, *msgSink, *msgSink, *simnet.Network) {
	t.Helper()
	net := simnet.New(cfg)
	t.Cleanup(func() { net.Close() })
	var sa, sb msgSink
	a, err := attachSim(net, 1, rcfg, sa.handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := attachSim(net, 2, rcfg, sb.handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b, &sa, &sb, net
}

func TestSingleSmallMessage(t *testing.T) {
	a, _, _, sb, _ := pairOn(t, simnet.Instant(), Config{})
	if err := a.Send(2, []byte("hello portals")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sb.count() == 1 })
	if string(sb.get(0)) != "hello portals" {
		t.Errorf("got %q", sb.get(0))
	}
}

func TestEmptyMessage(t *testing.T) {
	a, _, _, sb, _ := pairOn(t, simnet.Instant(), Config{})
	if err := a.Send(2, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sb.count() == 1 })
	if len(sb.get(0)) != 0 {
		t.Errorf("got %d bytes", len(sb.get(0)))
	}
}

func TestMultiFragmentMessage(t *testing.T) {
	cfg := simnet.Instant()
	cfg.MTU = 256 // force many fragments
	a, _, _, sb, _ := pairOn(t, cfg, Config{EagerMax: 1 << 20})
	msg := make([]byte, 10000)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	if err := a.Send(2, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sb.count() == 1 })
	if !bytes.Equal(sb.get(0), msg) {
		t.Error("multi-fragment reassembly corrupted the message")
	}
}

func TestOrderingManyMessages(t *testing.T) {
	a, _, _, sb, _ := pairOn(t, simnet.Instant(), Config{})
	const count = 500
	for i := 0; i < count; i++ {
		if err := a.Send(2, []byte(fmt.Sprintf("msg-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return sb.count() == count })
	for i := 0; i < count; i++ {
		if want := fmt.Sprintf("msg-%04d", i); string(sb.get(i)) != want {
			t.Fatalf("message %d = %q, want %q", i, sb.get(i), want)
		}
	}
}

func TestRendezvousForLargeMessage(t *testing.T) {
	cfg := simnet.Instant()
	a, b, _, sb, _ := pairOn(t, cfg, Config{EagerMax: 1024})
	big := bytes.Repeat([]byte("R"), 50*1024)
	if err := a.Send(2, big); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sb.count() == 1 })
	if !bytes.Equal(sb.get(0), big) {
		t.Error("rendezvous message corrupted")
	}
	if a.Stats().RTSSent.Load() != 1 {
		t.Errorf("RTS sent = %d, want 1", a.Stats().RTSSent.Load())
	}
	if b.Stats().CTSSent.Load() != 1 {
		t.Errorf("CTS sent = %d, want 1", b.Stats().CTSSent.Load())
	}
}

func TestEagerSkipsRendezvous(t *testing.T) {
	a, _, _, sb, _ := pairOn(t, simnet.Instant(), Config{EagerMax: 1024})
	if err := a.Send(2, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sb.count() == 1 })
	if a.Stats().RTSSent.Load() != 0 {
		t.Error("eager-sized message performed rendezvous")
	}
}

// Two nodes starting rendezvous at each other simultaneously must not
// deadlock (the CTS fast path exists exactly for this).
func TestSimultaneousRendezvous(t *testing.T) {
	a, b, sa, sb, _ := pairOn(t, simnet.Instant(), Config{EagerMax: 512})
	big := bytes.Repeat([]byte("x"), 64*1024)
	if err := a.Send(2, big); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(1, big); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return sa.count() == 1 && sb.count() == 1 })
}

func TestMixedEagerAndRendezvousStayOrdered(t *testing.T) {
	a, _, _, sb, _ := pairOn(t, simnet.Instant(), Config{EagerMax: 1024})
	var want [][]byte
	for i := 0; i < 20; i++ {
		var msg []byte
		if i%3 == 0 {
			msg = bytes.Repeat([]byte{byte(i)}, 8192) // rendezvous
		} else {
			msg = bytes.Repeat([]byte{byte(i)}, 64) // eager
		}
		want = append(want, msg)
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return sb.count() == len(want) })
	for i := range want {
		if !bytes.Equal(sb.get(i), want[i]) {
			t.Fatalf("message %d reordered or corrupted (len %d vs %d)", i, len(sb.get(i)), len(want[i]))
		}
	}
}

// The window ring grows while its packets are in flight and lost: every
// descriptor moves to its new slot, so what a resend reads is the packet it
// resends, and every message arrives intact, in order and exactly once, with
// every buffer given back.
func TestRingGrowsMidWindowUnderLoss(t *testing.T) {
	held := pooltest.Baseline(t)
	net := simnet.New(simnet.Config{MTU: 256, LossRate: 0.05, DupRate: 0.02, ReorderRate: 0.02, Seed: 17})
	cfg := Config{Window: 64, RTO: 20 * time.Millisecond, EagerMax: 1024}
	var sb msgSink
	b, err := attachSim(net, 2, cfg, sb.handler)
	if err != nil {
		t.Fatal(err)
	}
	a, err := attachSim(net, 1, cfg, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 30; i++ {
		n := 100 // eager
		if i%3 == 0 {
			n = 8192 // rendezvous, 36 fragments
		}
		msg := pattern(n)
		msg[0] = byte(i)
		want = append(want, msg)
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, func() bool {
		st, _ := a.Peer(2)
		return sb.count() >= len(want) && st.InFlight == 0
	})
	if sb.count() != len(want) {
		t.Fatalf("%d messages delivered, want exactly %d", sb.count(), len(want))
	}
	for i := range want {
		if !bytes.Equal(sb.get(i), want[i]) {
			t.Fatalf("message %d reordered or corrupted (%d bytes, want %d)", i, len(sb.get(i)), len(want[i]))
		}
	}
	st, _ := a.Peer(2)
	if st.Ring <= 2 || st.Ring > cfg.Window {
		t.Errorf("ring of %d descriptors, want grown past 2 and at most the window (%d)", st.Ring, cfg.Window)
	}
	if a.Stats().Retransmits.Load() == 0 {
		t.Error("no retransmissions under 5% loss: the grown ring was never read by a resend")
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, held)
}

func TestRecoveryFromLoss(t *testing.T) {
	cfg := simnet.Config{MTU: 1024, LossRate: 0.15, Seed: 11}
	a, _, _, sb, _ := pairOn(t, cfg, Config{RTO: 20 * time.Millisecond, EagerMax: 1 << 20})
	const count = 60
	for i := 0; i < count; i++ {
		if err := a.Send(2, []byte(fmt.Sprintf("lossy-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, func() bool { return sb.count() == count })
	for i := 0; i < count; i++ {
		if want := fmt.Sprintf("lossy-%03d", i); string(sb.get(i)) != want {
			t.Fatalf("message %d = %q, want %q", i, sb.get(i), want)
		}
	}
	if a.Stats().Retransmits.Load() == 0 {
		t.Error("no retransmissions under 15% loss — reliability untested")
	}
}

func TestRecoveryFromDuplicationAndReorder(t *testing.T) {
	cfg := simnet.Config{MTU: 1024, DupRate: 0.2, ReorderRate: 0.2, Seed: 5}
	a, _, _, sb, _ := pairOn(t, cfg, Config{RTO: 20 * time.Millisecond, EagerMax: 1 << 20})
	const count = 60
	for i := 0; i < count; i++ {
		if err := a.Send(2, []byte(fmt.Sprintf("chaos-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, func() bool { return sb.count() == count })
	for i := 0; i < count; i++ {
		if want := fmt.Sprintf("chaos-%03d", i); string(sb.get(i)) != want {
			t.Fatalf("message %d = %q, want %q", i, sb.get(i), want)
		}
	}
	if sb.count() != count {
		t.Errorf("duplicates leaked: %d messages", sb.count())
	}
}

func TestLargeTransferUnderAllFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-sweep stress skipped in -short")
	}
	cfg := simnet.Config{MTU: 2048, LossRate: 0.05, DupRate: 0.05, ReorderRate: 0.05, Seed: 42}
	a, _, _, sb, _ := pairOn(t, cfg, Config{RTO: 15 * time.Millisecond, EagerMax: 4096, Window: 32})
	msg := make([]byte, 300*1024)
	for i := range msg {
		msg[i] = byte(i>>8) ^ byte(i)
	}
	wantSum := sha256.Sum256(msg)
	if err := a.Send(2, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, func() bool { return sb.count() == 1 })
	gotSum := sha256.Sum256(sb.get(0))
	if gotSum != wantSum {
		t.Error("large transfer corrupted under loss+dup+reorder")
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	a, b, sa, sb, _ := pairOn(t, simnet.Instant(), Config{})
	const count = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < count; i++ {
			if err := a.Send(2, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < count; i++ {
			if err := b.Send(1, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	waitFor(t, 10*time.Second, func() bool { return sa.count() == count && sb.count() == count })
}

func TestManyPeers(t *testing.T) {
	net := simnet.New(simnet.Instant())
	defer net.Close()
	const peers = 8
	var hub msgSink
	hubConn, err := attachSim(net, 0, Config{}, hub.handler)
	if err != nil {
		t.Fatal(err)
	}
	_ = hubConn
	for p := 1; p <= peers; p++ {
		var s msgSink
		c, err := attachSim(net, types.NID(p), Config{}, s.handler)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := c.Send(0, []byte{byte(p), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 10*time.Second, func() bool { return hub.count() == peers*50 })
	// Per-source ordering.
	perSrc := map[byte]int{}
	hub.mu.Lock()
	defer hub.mu.Unlock()
	for _, m := range hub.msgs {
		if int(m[1]) != perSrc[m[0]] {
			t.Fatalf("source %d out of order: got %d want %d", m[0], m[1], perSrc[m[0]])
		}
		perSrc[m[0]]++
	}
}

func TestSendAfterClose(t *testing.T) {
	a, _, _, _, _ := pairOn(t, simnet.Instant(), Config{})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); err == nil {
		t.Error("send after close succeeded")
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestWindowBlocksAndReleases(t *testing.T) {
	// Tiny window over a lossless fabric: throughput must still complete.
	cfg := simnet.Instant()
	cfg.MTU = 256
	a, _, _, sb, _ := pairOn(t, cfg, Config{Window: 2, EagerMax: 1 << 20})
	msg := make([]byte, 50*256) // far more fragments than the window
	if err := a.Send(2, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return sb.count() == 1 })
	if len(sb.get(0)) != len(msg) {
		t.Errorf("got %d bytes", len(sb.get(0)))
	}
}

func TestNetworkAdapter(t *testing.T) {
	n := NewNetwork(simnet.New(simnet.Instant()), Config{})
	defer n.Close()
	var s msgSink
	a, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	if a.LocalNID() != 1 {
		t.Errorf("LocalNID = %d", a.LocalNID())
	}
	if err := a.Send(2, []byte("via adapter")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return s.count() == 1 })
	if n.Sim() == nil {
		t.Error("Sim() nil")
	}
}

// TestBackoffGrowsUnderTotalLoss drives a sender against a black-hole
// fabric and checks that retransmission attempts back off exponentially:
// the per-attempt delay histogram must record strictly fewer attempts than
// a fixed-RTO schedule would, and delays at or near RTOMax must appear.
func TestBackoffGrowsUnderTotalLoss(t *testing.T) {
	cfg := simnet.Config{MTU: 1024, LossRate: 1.0, Seed: 7}
	rcfg := Config{RTO: 2 * time.Millisecond, RTOMax: 16 * time.Millisecond}
	a, _, _, _, _ := pairOn(t, cfg, rcfg)

	if err := a.Send(2, []byte("into the void")); err != nil {
		t.Fatal(err)
	}
	// At RTO=2ms capped at 16ms, the schedule is 2,4,8,16,16,... so in
	// 150ms we expect roughly 10 attempts; a fixed 2ms timer would make ~75.
	time.Sleep(150 * time.Millisecond)

	st := a.Stats()
	attempts := st.Backoff.Count()
	if attempts < 3 {
		t.Fatalf("expected several retransmission attempts, got %d", attempts)
	}
	if attempts > 25 {
		t.Fatalf("too many attempts (%d): backoff is not slowing the schedule", attempts)
	}
	if st.Retransmits.Load() < attempts {
		t.Fatalf("retransmits %d < attempts %d", st.Retransmits.Load(), attempts)
	}
	// Jitter never shrinks a delay, so the average must exceed the initial
	// RTO once the schedule has doubled a few times.
	if avg := st.Backoff.Sum() / attempts; avg <= int64(rcfg.RTO) {
		t.Fatalf("mean backoff %v never grew beyond RTO %v", time.Duration(avg), rcfg.RTO)
	}
}

// TestBackoffResetsOnProgress checks that cumulative-ack progress collapses
// the schedule: after a lossless exchange, a fresh stall starts again at RTO.
func TestBackoffResetsOnProgress(t *testing.T) {
	a, _, _, sb, _ := pairOn(t, simnet.Instant(), Config{RTO: 2 * time.Millisecond})
	if err := a.Send(2, []byte("warm up")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return sb.count() == 1 })
	if n := a.Stats().Backoff.Count(); n != 0 {
		t.Fatalf("lossless exchange recorded %d backoff attempts", n)
	}
}

func TestConnRegisterMetrics(t *testing.T) {
	a, _, _, sb, _ := pairOn(t, simnet.Instant(), Config{})
	if err := a.Send(2, []byte("counted")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return sb.count() == 1 })

	r := metrics.NewRegistry()
	a.RegisterMetrics(r, metrics.L("node", "1"))
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"portals_rtscts_acks_total",
		"portals_rtscts_backoff_ns_count",
		"portals_rtscts_stray_cts_total",
		`node="1"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
