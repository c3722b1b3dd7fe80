package udp

// The simnet rtscts stress matrix, ported onto real sockets: two Network
// instances (two "processes") exchange traffic through per-direction
// lossy UDP relays (proxytest) that drop, duplicate, reorder, and delay
// datagrams. Beyond correctness under faults, these assert the
// self-tuning claims end to end: the RTO converges to the measured path
// RTT, dup-acks fire fast retransmit, and the window shrinks under loss
// and regrows when the path heals.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/rtscts"
	"repro/internal/transport"
	"repro/internal/transport/udp/proxytest"
	"repro/internal/types"
)

// lossyPair wires two single-node Networks through per-direction relays.
type lossyPair struct {
	na, nb           *Network
	relayAB, relayBA *proxytest.Relay
	epA, epB         transport.Endpoint
	connA            *rtscts.Conn
	rxA, rxB         *collect
}

func newLossyPair(t *testing.T, pcfg proxytest.Config, rel rtscts.Config) *lossyPair {
	t.Helper()
	p := &lossyPair{
		na:  NewWithConfig(Config{Reliability: rel}),
		nb:  NewWithConfig(Config{Reliability: rel}),
		rxA: &collect{},
		rxB: &collect{},
	}
	t.Cleanup(func() { p.na.Close(); p.nb.Close() })
	var err error
	if p.epB, err = p.nb.Attach(2, p.rxB.handler); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.epB.Close() })
	if p.epA, err = p.na.Attach(1, p.rxA.handler); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.epA.Close() })
	p.connA = p.epA.(*rtscts.Conn)
	addrA, _ := p.na.Addr(1)
	addrB, _ := p.nb.Addr(2)
	if p.relayAB, err = proxytest.New(addrB, pcfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.relayAB.Close)
	if p.relayBA, err = proxytest.New(addrA, pcfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.relayBA.Close)
	if err := p.na.Register(2, p.relayAB.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := p.nb.Register(1, p.relayBA.Addr()); err != nil {
		t.Fatal(err)
	}
	return p
}

// stressRel is the reliability tuning the matrix runs under: a window
// small enough to see adaptation, an RTO seed far above the loopback RTT
// (convergence must win, not the seed), and a tight floor.
func stressRel() rtscts.Config {
	return rtscts.Config{Window: 16, RTO: 50 * time.Millisecond, RTOMin: 2 * time.Millisecond}
}

func sendOrdered(t *testing.T, ep transport.Endpoint, dst types.NID, count int, tag string) {
	t.Helper()
	for i := 0; i < count; i++ {
		if err := ep.Send(dst, []byte(fmt.Sprintf("%s-%05d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
}

func assertOrdered(t *testing.T, rx *collect, count int, tag string) {
	t.Helper()
	rx.mu.Lock()
	defer rx.mu.Unlock()
	for i := 0; i < count; i++ {
		if want := fmt.Sprintf("%s-%05d", tag, i); string(rx.msgs[i]) != want {
			t.Fatalf("position %d: got %q want %q", i, rx.msgs[i], want)
		}
	}
}

func TestStressRecoveryFromLoss(t *testing.T) {
	p := newLossyPair(t, proxytest.Config{Drop: 0.05, Seed: 101}, stressRel())
	const count = 300
	sendOrdered(t, p.epA, 2, count, "loss")
	p.rxB.waitFor(t, count, 60*time.Second)
	assertOrdered(t, p.rxB, count, "loss")
	if p.connA.Stats().Retransmits.Load() == 0 {
		t.Error("no retransmissions under 5% loss — relay not in the path?")
	}
}

func TestStressLowLossWithReorderAdaptsRTO(t *testing.T) {
	p := newLossyPair(t, proxytest.Config{Drop: 0.01, Reorder: 0.10, Seed: 202}, stressRel())
	const count = 400
	sendOrdered(t, p.epA, 2, count, "r1")
	p.rxB.waitFor(t, count, 60*time.Second)
	assertOrdered(t, p.rxB, count, "r1")
	if p.connA.Stats().RTTSamples.Load() == 0 {
		t.Fatal("no RTT samples under 1% loss")
	}
	st, ok := p.connA.Peer(2)
	if !ok {
		t.Fatal("no peer state")
	}
	if st.RTO >= 50*time.Millisecond {
		t.Errorf("RTO = %v never converged below the 50ms seed", st.RTO)
	}
}

func TestStressHighLossWithReorderFiresFastRetransmit(t *testing.T) {
	p := newLossyPair(t, proxytest.Config{Drop: 0.05, Reorder: 0.10, Seed: 303}, stressRel())
	const count = 400
	sendOrdered(t, p.epA, 2, count, "r5")
	p.rxB.waitFor(t, count, 90*time.Second)
	assertOrdered(t, p.rxB, count, "r5")
	if p.connA.Stats().FastRetransmits.Load() == 0 {
		t.Error("fast retransmit never fired under 5% loss with a full pipe")
	}
}

func TestStressDuplicationAndReorder(t *testing.T) {
	p := newLossyPair(t, proxytest.Config{Dup: 0.05, Reorder: 0.10, Seed: 404}, stressRel())
	const count = 300
	sendOrdered(t, p.epA, 2, count, "dup")
	p.rxB.waitFor(t, count, 60*time.Second)
	assertOrdered(t, p.rxB, count, "dup")
	if got := p.rxB.count(); got != count {
		t.Fatalf("delivered %d, want exactly %d (duplicates leaked?)", got, count)
	}
}

func TestStressLargeTransferUnderAllFaults(t *testing.T) {
	p := newLossyPair(t, proxytest.Config{
		Drop: 0.03, Dup: 0.03, Reorder: 0.03,
		Delay: time.Millisecond, Jitter: 500 * time.Microsecond, Seed: 505,
	}, stressRel())
	big := make([]byte, 300*1024)
	for i := range big {
		big[i] = byte(i*2654435761 ^ i>>8)
	}
	if err := p.epA.Send(2, big); err != nil {
		t.Fatal(err)
	}
	p.rxB.waitFor(t, 1, 120*time.Second)
	if sha256.Sum256(p.rxB.msgs[0]) != sha256.Sum256(big) {
		t.Fatal("large message corrupted crossing the faulty path")
	}
}

func TestStressBidirectionalUnderLoss(t *testing.T) {
	p := newLossyPair(t, proxytest.Config{Drop: 0.03, Seed: 606}, stressRel())
	const each = 150
	done := make(chan struct{})
	go func() {
		sendOrdered(t, p.epA, 2, each, "ab")
		close(done)
	}()
	sendOrdered(t, p.epB, 1, each, "ba")
	<-done
	p.rxB.waitFor(t, each, 60*time.Second)
	p.rxA.waitFor(t, each, 60*time.Second)
	assertOrdered(t, p.rxB, each, "ab")
	assertOrdered(t, p.rxA, each, "ba")
}

func TestStressWindowShrinksThenRegrows(t *testing.T) {
	p := newLossyPair(t, proxytest.Config{Seed: 707}, stressRel())
	const ceiling = 16

	// Phase 1: clean path. The window sits at the ceiling.
	sendOrdered(t, p.epA, 2, 100, "p1")
	p.rxB.waitFor(t, 100, 30*time.Second)
	if st, _ := p.connA.Peer(2); st.Window != ceiling {
		t.Fatalf("phase 1: window = %d, want ceiling %d", st.Window, ceiling)
	}

	// Phase 2: 25% loss. Retransmissions must shrink the window.
	p.relayAB.SetConfig(proxytest.Config{Drop: 0.25})
	delivered := 100
	deadline := time.Now().Add(60 * time.Second)
	shrunk := 0
	for {
		sendOrdered(t, p.epA, 2, 50, fmt.Sprintf("p2x%d", delivered))
		delivered += 50
		p.rxB.waitFor(t, delivered, 60*time.Second)
		if st, _ := p.connA.Peer(2); st.Window < ceiling {
			shrunk = st.Window
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("window never shrank under 25% loss")
		}
	}
	if p.connA.Stats().Retransmits.Load() == 0 {
		t.Fatal("window shrank without retransmissions?")
	}
	t.Logf("phase 2: window shrank to %d (retransmits=%d fast=%d)",
		shrunk, p.connA.Stats().Retransmits.Load(), p.connA.Stats().FastRetransmits.Load())

	// Phase 3: path heals. Clean ack runs must regrow the window to the
	// ceiling (+1 per acked window — additive increase).
	p.relayAB.SetConfig(proxytest.Config{})
	deadline = time.Now().Add(60 * time.Second)
	for {
		sendOrdered(t, p.epA, 2, 50, fmt.Sprintf("p3x%d", delivered))
		delivered += 50
		p.rxB.waitFor(t, delivered, 60*time.Second)
		if st, _ := p.connA.Peer(2); st.Window == ceiling {
			break
		}
		if time.Now().After(deadline) {
			st, _ := p.connA.Peer(2)
			t.Fatalf("window stuck at %d, never regrew to %d", st.Window, ceiling)
		}
	}
}

func TestStressRTOConvergesToPathRTT(t *testing.T) {
	// 5 ms each way through the relays -> ~10 ms RTT. The RTO seeds at
	// 200 ms; convergence must pull it to RTT scale.
	rel := rtscts.Config{Window: 16, RTO: 200 * time.Millisecond, RTOMin: 2 * time.Millisecond}
	p := newLossyPair(t, proxytest.Config{Delay: 5 * time.Millisecond, Seed: 808}, rel)
	const count = 150
	sendOrdered(t, p.epA, 2, count, "rtt")
	p.rxB.waitFor(t, count, 60*time.Second)
	st, ok := p.connA.Peer(2)
	if !ok {
		t.Fatal("no peer state")
	}
	if st.SRTT < 8*time.Millisecond || st.SRTT > 80*time.Millisecond {
		t.Errorf("SRTT = %v, want on the order of the 10ms path RTT", st.SRTT)
	}
	if st.RTO >= 200*time.Millisecond {
		t.Errorf("RTO = %v never left the 200ms seed", st.RTO)
	}
	if st.RTO < 10*time.Millisecond {
		t.Errorf("RTO = %v below the path RTT — spurious retransmit territory", st.RTO)
	}
	t.Logf("SRTT=%v RTTVAR=%v RTO=%v samples=%d",
		st.SRTT, st.RTTVar, st.RTO, p.connA.Stats().RTTSamples.Load())
}

var _ = bytes.Equal // keep bytes imported if asserts change
