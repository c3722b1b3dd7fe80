package rtscts

// Whitebox tests for the self-tuning window machinery: RTO estimation
// (Jacobson/Karels with Karn's rule), dup-ack fast retransmit with the
// once-per-window recover guard, multiplicative window decrease on both
// retransmission kinds, additive regrowth on clean ack runs, and the
// batch delivery mode the UDP transport uses.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// blackholeConn attaches a conn whose peer NID is never attached, so every
// data packet vanishes and the test injects acks by hand — the only way to
// drive the ack state machine deterministically.
func blackholeConn(t *testing.T, cfg Config) (*Conn, *peerSender) {
	t.Helper()
	net := simnet.New(simnet.Instant())
	c, err := attachSim(net, 1, cfg, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); net.Close() })
	s, err := c.sender(99)
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

func waitInFlight(t *testing.T, c *Conn, dst types.NID, n int) PeerState {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok := c.Peer(dst)
		if ok && st.InFlight == n {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached %d (now %+v)", n, st)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// quietCfg keeps the retransmit timer out of the way so injected acks are
// the only events.
func quietCfg(window int) Config {
	return Config{Window: window, RTO: 5 * time.Second, RTOMin: 5 * time.Second}
}

func TestFastRetransmitFiresOnThirdDupAck(t *testing.T) {
	c, s := blackholeConn(t, quietCfg(8))
	for i := 0; i < 4; i++ {
		if err := c.Send(99, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitInFlight(t, c, 99, 4)

	s.onAck(0, 0)
	s.onAck(0, 0)
	if got := c.stats.FastRetransmits.Load(); got != 0 {
		t.Fatalf("fast retransmit fired after 2 dup acks (count %d)", got)
	}
	s.onAck(0, 0)
	if got := c.stats.FastRetransmits.Load(); got != 1 {
		t.Fatalf("fast retransmits after 3rd dup ack = %d, want 1", got)
	}
	if got := c.stats.Retransmits.Load(); got != 4 {
		t.Fatalf("go-back-n resend sent %d packets, want the whole window (4)", got)
	}
	st, _ := c.Peer(99)
	if st.Window != 6 { // 8 * 3/4
		t.Fatalf("window after fast retransmit = %d, want 6", st.Window)
	}

	// The recover guard: dup acks from our own resend burst must not
	// re-fire until the whole outstanding window is acked.
	for i := 0; i < 5; i++ {
		s.onAck(0, 0)
	}
	if got := c.stats.FastRetransmits.Load(); got != 1 {
		t.Fatalf("fast retransmit re-fired inside recovery (count %d)", got)
	}

	// Partial progress keeps the guard: base 2 < recover 4.
	s.onAck(2, 0)
	for i := 0; i < 4; i++ {
		s.onAck(2, 0)
	}
	if got := c.stats.FastRetransmits.Load(); got != 1 {
		t.Fatalf("fast retransmit re-fired below recover point (count %d)", got)
	}

	// Full recovery re-arms it.
	s.onAck(4, 0)
	for i := 0; i < 3; i++ {
		if err := c.Send(99, []byte{0xAA}); err != nil {
			t.Fatal(err)
		}
	}
	waitInFlight(t, c, 99, 3)
	s.onAck(4, 0)
	s.onAck(4, 0)
	s.onAck(4, 0)
	if got := c.stats.FastRetransmits.Load(); got != 2 {
		t.Fatalf("fast retransmit did not re-arm after recovery (count %d)", got)
	}
}

func TestWindowRegrowsOnCleanAckRuns(t *testing.T) {
	c, s := blackholeConn(t, quietCfg(8))
	for i := 0; i < 4; i++ {
		if err := c.Send(99, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitInFlight(t, c, 99, 4)
	s.onAck(0, 0)
	s.onAck(0, 0)
	s.onAck(0, 0) // fast retransmit: window 8 -> 6
	if st, _ := c.Peer(99); st.Window != 6 {
		t.Fatalf("window = %d, want 6", st.Window)
	}
	s.onAck(4, 0) // recovery complete

	// Each full window of clean acks grows the window by one.
	base := uint64(4)
	for grown := 0; grown < 2; grown++ {
		for fed := 0; fed < 8; { // 8 acked pkts per round trips ackRun >= wnd
			n := 4
			for i := 0; i < n; i++ {
				if err := c.Send(99, []byte{0xBB}); err != nil {
					t.Fatal(err)
				}
			}
			waitInFlight(t, c, 99, n)
			base += uint64(n)
			s.onAck(base, 0)
			fed += n
		}
	}
	if st, _ := c.Peer(99); st.Window != 8 {
		t.Fatalf("window after clean ack runs = %d, want regrown to 8", st.Window)
	}

	// Growth is capped at the configured ceiling.
	for i := 0; i < 4; i++ {
		if err := c.Send(99, []byte{0xCC}); err != nil {
			t.Fatal(err)
		}
	}
	waitInFlight(t, c, 99, 4)
	base += 4
	s.onAck(base, 0)
	if st, _ := c.Peer(99); st.Window != 8 {
		t.Fatalf("window exceeded ceiling: %d", st.Window)
	}
}

func TestKarnRuleSkipsRetransmittedSamples(t *testing.T) {
	c, s := blackholeConn(t, quietCfg(8))
	for i := 0; i < 2; i++ {
		if err := c.Send(99, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitInFlight(t, c, 99, 2)
	s.mu.Lock()
	for i := range s.inFlight {
		s.inFlight[i].hdr[1] |= flagResent
	}
	s.mu.Unlock()
	s.onAck(2, 0)
	if got := c.stats.RTTSamples.Load(); got != 0 {
		t.Fatalf("RTT sampled from retransmitted packets (%d samples)", got)
	}
	if st, _ := c.Peer(99); st.SRTT != 0 {
		t.Fatalf("SRTT = %v from retransmitted packets, want 0", st.SRTT)
	}

	// A clean packet acked afterwards does produce a sample.
	if err := c.Send(99, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, c, 99, 1)
	s.onAck(3, 0)
	if got := c.stats.RTTSamples.Load(); got != 1 {
		t.Fatalf("RTT samples = %d, want 1", got)
	}
	if st, _ := c.Peer(99); st.SRTT <= 0 {
		t.Fatalf("SRTT = %v, want > 0", st.SRTT)
	}
}

func TestWindowShrinksOnTimeoutRetransmit(t *testing.T) {
	cfg := Config{Window: 8, RTO: 2 * time.Millisecond, RTOMax: 8 * time.Millisecond}
	c, _ := blackholeConn(t, cfg)
	for i := 0; i < 4; i++ {
		if err := c.Send(99, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.stats.Retransmits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timeout retransmission never fired")
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := c.Peer(99)
	if st.Window >= 8 {
		t.Fatalf("window = %d after timeout retransmit, want < 8", st.Window)
	}
	if st.Window < 2 {
		t.Fatalf("window = %d, shrank below the minWindow floor 2", st.Window)
	}
}

func TestRTOConvergesToMeasuredRTT(t *testing.T) {
	// 1 ms one-way latency -> ~2 ms RTT. The configured RTO starts at
	// 100 ms; with samples flowing it must collapse toward the real RTT.
	net := simnet.New(simnet.Config{Latency: time.Millisecond, MTU: 4096})
	defer net.Close()
	got := make(chan []byte, 256)
	rc, err := attachSim(net, 2, DefaultConfig(), func(_ types.NID, msg []byte) {
		m := make([]byte, len(msg))
		copy(m, msg)
		got <- m
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	sc, err := attachSim(net, 1, Config{Window: 16, RTO: 100 * time.Millisecond}, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const n = 60
	for i := 0; i < n; i++ {
		if err := sc.Send(2, []byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/%d messages arrived", i, n)
		}
	}
	st, ok := sc.Peer(2)
	if !ok {
		t.Fatal("no peer state")
	}
	if sc.stats.RTTSamples.Load() == 0 {
		t.Fatal("no RTT samples collected")
	}
	if st.SRTT < time.Millisecond || st.SRTT > 40*time.Millisecond {
		t.Fatalf("SRTT = %v, want on the order of the 2 ms fabric RTT", st.SRTT)
	}
	if st.RTO >= 100*time.Millisecond {
		t.Fatalf("RTO = %v, never converged below the configured 100 ms", st.RTO)
	}
	if st.RTO < time.Millisecond {
		t.Fatalf("RTO = %v, fell below RTOMin", st.RTO)
	}
}

// fakeBurstNet is a minimal PacketNetwork with the UDP transport's
// dispatch shape: one goroutine per node drains a queue, hands each packet
// to the conn — whole, as a copy — and calls flush at burst boundaries. It
// exists to test Attach's accumulate-then-flush contract in-process. A test
// that wants to choose the bursts itself taps the peer's NID, so nothing is
// dispatched behind its back, and feeds the conn's own endpoint by hand.
type fakeBurstNet struct {
	mu    sync.Mutex
	nodes map[types.NID]*fakeBurstEP
}

type fakeBurstPkt struct {
	src  types.NID
	data []byte
}

type fakeBurstEP struct {
	net   *fakeBurstNet
	nid   types.NID
	h     PacketHandler
	flush func()
	ch    chan fakeBurstPkt
}

func newFakeBurstNet() *fakeBurstNet {
	return &fakeBurstNet{nodes: make(map[types.NID]*fakeBurstEP)}
}

func (n *fakeBurstNet) MTU() int { return 1024 }

func (n *fakeBurstNet) AttachPacket(nid types.NID, h PacketHandler, flush func()) (PacketEndpoint, error) {
	ep := &fakeBurstEP{net: n, nid: nid, h: h, flush: flush, ch: make(chan fakeBurstPkt, 4096)}
	n.mu.Lock()
	n.nodes[nid] = ep
	n.mu.Unlock()
	go ep.dispatch()
	return ep, nil
}

// tap registers nid with no dispatcher: whatever is sent to it waits in the
// returned channel for the test to read.
func (n *fakeBurstNet) tap(nid types.NID) <-chan fakeBurstPkt {
	ep := &fakeBurstEP{net: n, nid: nid, ch: make(chan fakeBurstPkt, 4096)}
	n.mu.Lock()
	n.nodes[nid] = ep
	n.mu.Unlock()
	return ep.ch
}

// node is the endpoint attached as nid.
func (n *fakeBurstNet) node(nid types.NID) *fakeBurstEP {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodes[nid]
}

func (ep *fakeBurstEP) dispatch() {
	for pkt := range ep.ch {
		ep.h(pkt.src, pkt.data, nil)
	drain:
		for {
			select {
			case more, ok := <-ep.ch:
				if !ok {
					return
				}
				ep.h(more.src, more.data, nil)
			default:
				break drain
			}
		}
		ep.flush()
	}
}

func (ep *fakeBurstEP) SendPacket(dst types.NID, hdr, payload []byte, _ *bufpool.Buf) error {
	cp := append(append([]byte(nil), hdr...), payload...)
	// Under the lock, so that Close cannot close the queue in between.
	ep.net.mu.Lock()
	defer ep.net.mu.Unlock()
	peer := ep.net.nodes[dst]
	if peer == nil {
		return nil // unreachable peer: silent loss
	}
	select {
	case peer.ch <- fakeBurstPkt{src: ep.nid, data: cp}:
	default: // queue full: tail drop
	}
	return nil
}

func (ep *fakeBurstEP) LocalNID() types.NID { return ep.nid }

// Close detaches the endpoint and ends its dispatcher.
func (ep *fakeBurstEP) Close() error {
	ep.net.mu.Lock()
	defer ep.net.mu.Unlock()
	if ep.net.nodes[ep.nid] == ep {
		delete(ep.net.nodes, ep.nid)
		close(ep.ch)
	}
	return nil
}

func TestBatchModeDeliversPooledBatches(t *testing.T) {
	net := newFakeBurstNet()
	type rx struct {
		src types.NID
		msg string
		buf bool
	}
	var rmu sync.Mutex
	var seen []rx
	var batches int
	rc, err := Attach(net, 2, DefaultConfig(), func(batch []transport.Delivery) {
		rmu.Lock()
		batches++
		for i := range batch {
			seen = append(seen, rx{batch[i].Src, string(batch[i].Msg), batch[i].Buf != nil})
			batch[i].Release()
		}
		rmu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	sc, err := Attach(net, 1, DefaultConfig(), transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const n = 80
	for i := 0; i < n; i++ {
		if err := sc.Send(2, []byte(fmt.Sprintf("batch-msg-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rmu.Lock()
		done := len(seen) == n
		rmu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			rmu.Lock()
			t.Fatalf("only %d/%d messages delivered", len(seen), n)
		}
		time.Sleep(time.Millisecond)
	}
	rmu.Lock()
	defer rmu.Unlock()
	for i, r := range seen {
		if r.src != 1 {
			t.Fatalf("message %d from %d, want 1", i, r.src)
		}
		if want := fmt.Sprintf("batch-msg-%04d", i); r.msg != want {
			t.Fatalf("message %d = %q, want %q (order violated?)", i, r.msg, want)
		}
		if !r.buf {
			t.Fatalf("message %d delivered without a pooled buffer", i)
		}
	}
	if batches > n {
		t.Fatalf("%d batches for %d messages — flush never coalesced", batches, n)
	}
}

// dataPkt builds one sequenced fragment by hand. total is the message
// length, given on the first fragment only (0 marks a continuation).
func dataPkt(seq uint64, total int, payload []byte) []byte {
	var hdr [pktHeaderSize]byte
	var flags uint8
	if total > 0 {
		flags = flagFirst | msgApp<<msgKindShift
	}
	putHeader(&hdr, pktData, flags, seq, uint64(total))
	return append(hdr[:], payload...)
}

// ackValues drains the acks waiting in a tapped channel.
func ackValues(t *testing.T, ch <-chan fakeBurstPkt) (acks []uint64) {
	t.Helper()
	for {
		select {
		case p := <-ch:
			kind, _, seq, _, _, err := decodePacket(p.data, nil)
			if err != nil || kind != pktAck {
				t.Fatalf("tapped a non-ack packet (kind %d, err %v)", kind, err)
			}
			acks = append(acks, seq)
		default:
			return acks
		}
	}
}

// The ack rule: packets accepted in sequence are acknowledged by the flush
// that ends their burst, once, cumulatively — not one by one.
func TestBurstYieldsOneCumulativeAck(t *testing.T) {
	net := newFakeBurstNet()
	acks := net.tap(1)
	var got msgSink
	rc, err := Attach(net, 2, quietCfg(8), transport.Borrow(got.handler))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	feed := net.node(2)

	const k = 5
	frag := net.MTU() - pktHeaderSize
	msg := bytes.Repeat([]byte{0x5a}, k*frag)
	next := uint64(0)
	for round := 1; round <= 2; round++ { // the second burst starts at base k, not 0
		base := next
		for i := 0; i < k; i++ {
			total := 0
			if i == 0 {
				total = len(msg)
			}
			feed.h(1, dataPkt(next, total, msg[i*frag:(i+1)*frag]), nil)
			next++
		}
		if early := ackValues(t, acks); len(early) != 0 {
			t.Fatalf("acks %v sent before the burst ended", early)
		}
		if got.count() != round-1 {
			t.Fatalf("message handed up before the burst ended")
		}
		feed.flush()
		if a := ackValues(t, acks); len(a) != 1 || a[0] != base+k {
			t.Fatalf("burst of %d from base %d acked %v, want exactly [%d]", k, base, a, base+k)
		}
		if got.count() != round {
			t.Fatalf("%d messages delivered after burst %d", got.count(), round)
		}
		feed.flush() // nothing is owed: an empty burst sends nothing
		if a := ackValues(t, acks); len(a) != 0 {
			t.Fatalf("flush with nothing due sent acks %v", a)
		}
	}
	if n := rc.Stats().AcksSent.Load(); n != 2 {
		t.Fatalf("AcksSent = %d for two bursts", n)
	}
}

// An out-of-order packet is answered at once, inside the burst, and the ack
// the in-order run before it was owed goes out first — so the answer is a
// duplicate, and three packets past a hole still fire the peer's fast
// retransmit exactly as three per-packet duplicate acks did.
func TestOutOfOrderInsideBurstAcksImmediately(t *testing.T) {
	// Two fabrics, so the test carries every packet across by hand: the
	// sender's data lands in a tap on one, the receiver's acks in a tap on
	// the other.
	netA, netB := newFakeBurstNet(), newFakeBurstNet()
	data, acks := netA.tap(2), netB.tap(1)
	sc, err := Attach(netA, 1, quietCfg(8), transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	rc, err := Attach(netB, 2, quietCfg(8), transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	for i := 0; i < 6; i++ {
		if err := sc.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitInFlight(t, sc, 2, 6)
	var pkts [][]byte
	for len(pkts) < 6 {
		pkts = append(pkts, (<-data).data)
	}

	// One burst: 0 and 1 in order, 2 lost, 3, 4 and 5 past the hole.
	feed := netB.node(2)
	feed.h(1, pkts[0], nil)
	feed.h(1, pkts[1], nil)
	if a := ackValues(t, acks); len(a) != 0 {
		t.Fatalf("in-order packets acked %v before the burst ended", a)
	}
	feed.h(1, pkts[3], nil)
	if a := ackValues(t, acks); len(a) != 2 || a[0] != 2 || a[1] != 2 {
		t.Fatalf("first packet past the hole produced acks %v, want the owed ack and its duplicate [2 2]", a)
	}
	feed.h(1, pkts[4], nil)
	feed.h(1, pkts[5], nil)
	if a := ackValues(t, acks); len(a) != 2 || a[0] != 2 || a[1] != 2 {
		t.Fatalf("two more packets past the hole produced acks %v, want [2 2]", a)
	}
	feed.flush()
	if a := ackValues(t, acks); len(a) != 0 {
		t.Fatalf("flush after immediate acks sent %v, want nothing further", a)
	}
	if n := rc.Stats().OutOfOrder.Load(); n != 3 {
		t.Fatalf("OutOfOrder = %d, want 3", n)
	}

	// The same four acks at the sender: progress to 2, then three duplicates.
	ack := func() {
		var hdr [pktHeaderSize]byte
		putHeader(&hdr, pktAck, 0, 2, 0)
		netA.node(1).h(2, hdr[:], nil)
	}
	ack()
	ack()
	ack()
	if n := sc.Stats().FastRetransmits.Load(); n != 0 {
		t.Fatalf("fast retransmit fired after two duplicates (count %d)", n)
	}
	ack()
	if n := sc.Stats().FastRetransmits.Load(); n != 1 {
		t.Fatalf("fast retransmits after the third duplicate = %d, want 1", n)
	}
	if n := sc.Stats().Retransmits.Load(); n != 4 {
		t.Fatalf("go-back-n resent %d packets, want the outstanding 4", n)
	}
}

// A fast retransmit of a window the receiver partly had draws duplicates,
// and their answers must not fire the next one: once the ack of what the
// receiver had moves the window base to the recover point, three answers at
// the new base would otherwise read as three duplicate acks past a hole and
// resend the next window, whose answers would resend the one after. The
// answers are marked (flagDSACK); the sender takes their cumulative
// progress and counts none of them.
func TestNeedlessFastRetransmitSetsOffNoOther(t *testing.T) {
	netA, netB := newFakeBurstNet(), newFakeBurstNet()
	data, acks := netA.tap(2), netB.tap(1)
	sc, err := Attach(netA, 1, quietCfg(8), transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var got msgSink
	rc, err := Attach(netB, 2, quietCfg(8), transport.Borrow(got.handler))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	send := func(from, n int) [][]byte {
		for i := from; i < from+n; i++ {
			if err := sc.Send(2, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		var pkts [][]byte
		for len(pkts) < n {
			pkts = append(pkts, (<-data).data)
		}
		return pkts
	}
	feed, toSender := netB.node(2), func(ack []byte) { netA.node(1).h(2, ack, nil) }
	takeAcks := func() (out [][]byte) {
		for len(acks) > 0 {
			out = append(out, (<-acks).data)
		}
		return out
	}

	orig := send(0, 4)
	for _, p := range orig[:3] {
		feed.h(1, p, nil)
	}
	feed.flush()
	held := takeAcks() // [3], still on its way when the duplicates below arrive
	// Three duplicates at 0, as a reordered burst draws them: the sender
	// resends the whole window, of which the receiver has all but packet 3.
	var dup [pktHeaderSize]byte
	putHeader(&dup, pktAck, 0, 0, 0)
	for i := 0; i < 3; i++ {
		toSender(dup[:])
	}
	if n, f := sc.Stats().Retransmits.Load(), sc.Stats().FastRetransmits.Load(); n != 4 || f != 1 {
		t.Fatalf("forced fast retransmit: %d resent, %d fired; want 4 and 1", n, f)
	}
	var resent [][]byte
	for len(resent) < 4 {
		resent = append(resent, (<-data).data)
	}
	for _, a := range held {
		toSender(a)
	}
	next := send(4, 4) // the window reopened: 3..7 in flight

	feed.h(1, orig[3], nil)
	feed.flush()
	takeAcks() // [4], lost
	for _, p := range resent {
		feed.h(1, p, nil)
	}
	answers := takeAcks()
	if len(answers) != 4 {
		t.Fatalf("four duplicates drew %d answers, want 4", len(answers))
	}
	for i, a := range answers {
		if _, flags, seq, _, _, err := decodePacket(a, nil); err != nil || seq != 4 || flags&flagDSACK == 0 {
			t.Fatalf("answer %d to a duplicate: ack %d, flags %#x (err %v); want 4 with flagDSACK", i, seq, flags, err)
		}
		toSender(a)
	}
	if st, _ := sc.Peer(2); st.Base != 4 || st.NextSeq != 8 {
		t.Fatalf("after the answers: base %d, next %d; want their progress taken (4, 8)", st.Base, st.NextSeq)
	}
	if n, f := sc.Stats().Retransmits.Load(), sc.Stats().FastRetransmits.Load(); n != 4 || f != 1 {
		t.Fatalf("the answers to duplicates resent %d more packets in %d more fast retransmits; want one window (4) in all", n-4, f-1)
	}

	for _, p := range next {
		feed.h(1, p, nil)
	}
	feed.flush()
	for _, a := range takeAcks() {
		toSender(a)
	}
	if st, _ := sc.Peer(2); st.InFlight != 0 {
		t.Fatalf("%d packets still in flight after the last ack", st.InFlight)
	}
	if got.count() != 8 {
		t.Fatalf("%d messages delivered, want 8", got.count())
	}
	for i := 0; i < 8; i++ {
		if m := got.get(i); len(m) != 1 || m[0] != byte(i) {
			t.Fatalf("message %d = %v, want [%d]", i, m, i)
		}
	}
	if n := rc.Stats().DupsDiscarded.Load(); n != 4 {
		t.Fatalf("DupsDiscarded = %d, want 4", n)
	}
}

// Liveness: an ack exists only if a flush follows the packet, so no burst
// may end without one. A lone packet on an otherwise idle link must be
// acked by its own flush, long before a retransmission timer that is set
// far out of the way could paper over a missing one.
func TestLonePacketIsAckedByItsFlush(t *testing.T) {
	cfg := Config{RTO: 200 * time.Millisecond, RTOMin: 200 * time.Millisecond}
	for _, tc := range []struct {
		name string
		pn   func(t *testing.T) PacketNetwork
	}{
		{"fakeBurstNet", func(*testing.T) PacketNetwork { return newFakeBurstNet() }},
		{"simnet", func(t *testing.T) PacketNetwork {
			n := simnet.New(simnet.Instant())
			t.Cleanup(func() { n.Close() })
			return simPacketNetwork{n}
		}},
		{"simnet-timed", func(t *testing.T) PacketNetwork {
			n := simnet.New(simnet.Myrinet())
			t.Cleanup(func() { n.Close() })
			return simPacketNetwork{n}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pn := tc.pn(t)
			var got msgSink
			rc, err := Attach(pn, 2, cfg, transport.Borrow(got.handler))
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			sc, err := Attach(pn, 1, cfg, transport.Borrow(func(types.NID, []byte) {}))
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			for i := 0; i < 3; i++ { // each on a link that has gone idle again
				start := time.Now()
				if err := sc.Send(2, []byte("lone")); err != nil {
					t.Fatal(err)
				}
				waitFor(t, 5*time.Second, func() bool {
					st, _ := sc.Peer(2)
					return st.NextSeq == uint64(i+1) && st.InFlight == 0
				})
				if d := time.Since(start); d > cfg.RTO/2 {
					t.Fatalf("packet %d acked after %v: by the %v timer, not by its flush", i, d, cfg.RTO)
				}
			}
			if n := sc.Stats().Retransmits.Load(); n != 0 {
				t.Fatalf("%d retransmissions on a clean idle link", n)
			}
			if got.count() != 3 {
				t.Fatalf("delivered %d messages, want 3", got.count())
			}
		})
	}
}

// A message one fragment longer than the window must not need the timer:
// the acks that reopen the window come from flushes, and a burst that holds
// a whole window still ends in one.
func TestWindowPlusOneNeedsNoTimeout(t *testing.T) {
	net := newFakeBurstNet()
	cfg := Config{Window: 64, RTO: 200 * time.Millisecond, RTOMin: 200 * time.Millisecond}
	var got msgSink
	rc, err := Attach(net, 2, cfg, transport.Borrow(got.handler))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	sc, err := Attach(net, 1, cfg, transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const frags = 65
	msg := bytes.Repeat([]byte{0xa5}, (frags-1)*(net.MTU()-pktHeaderSize)+1)
	if len(msg) <= DefaultConfig().EagerMax {
		t.Fatalf("%d bytes would go eagerly", len(msg))
	}
	start := time.Now()
	if err := sc.Send(2, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		st, _ := sc.Peer(2)
		return got.count() == 1 && st.InFlight == 0
	})
	if d := time.Since(start); d > cfg.RTO/2 {
		t.Errorf("transfer took %v: something waited for the %v timer", d, cfg.RTO)
	}
	if n := sc.Stats().Retransmits.Load(); n != 0 {
		t.Fatalf("%d retransmissions on a clean fabric", n)
	}
	if n := sc.Stats().RTSSent.Load(); n != 1 {
		t.Fatalf("RTSSent = %d, want a rendezvous", n)
	}
	if data, acks := int64(frags+1), rc.Stats().AcksSent.Load(); acks > data {
		t.Errorf("%d acks for %d sequenced packets", acks, data)
	}
}

// After a gap the stream is acked packet by packet for ackRunAfterGap
// in-sequence packets — the peer's window has likely shrunk, and a
// window-limited sender pays a full timeout for a lost burst ack — and
// then per burst again.
func TestAcksGoPerPacketWhileMendingAGap(t *testing.T) {
	net := newFakeBurstNet()
	acks := net.tap(1)
	rc, err := Attach(net, 2, quietCfg(8), transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	feed := net.node(2)
	one := func(seq uint64) { feed.h(1, dataPkt(seq, 1, []byte{0}), nil) }

	one(1) // past a hole at 0: discarded, answered at once
	if a := ackValues(t, acks); len(a) != 1 || a[0] != 0 {
		t.Fatalf("out-of-order packet acked %v, want [0]", a)
	}
	for seq := uint64(0); seq < ackRunAfterGap; seq++ {
		one(seq)
		if a := ackValues(t, acks); len(a) != 1 || a[0] != seq+1 {
			t.Fatalf("packet %d after the gap acked %v before any flush, want [%d]", seq, a, seq+1)
		}
	}
	feed.flush()
	if a := ackValues(t, acks); len(a) != 0 {
		t.Fatalf("flush with every packet already acked sent %v", a)
	}
	one(ackRunAfterGap)
	one(ackRunAfterGap + 1)
	if a := ackValues(t, acks); len(a) != 0 {
		t.Fatalf("mended stream acked %v inside a burst", a)
	}
	feed.flush()
	if a := ackValues(t, acks); len(a) != 1 || a[0] != ackRunAfterGap+2 {
		t.Fatalf("mended stream's burst acked %v, want [%d]", a, ackRunAfterGap+2)
	}
}
