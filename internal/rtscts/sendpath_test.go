package rtscts

// The send path has no goroutine of its own: a packet leaves from the Send
// that made it when the window has room, and otherwise from the receipt of
// the ack that reopened the window or of the CTS that cleared the
// rendezvous; whatever the window has no room for waits, in order, without
// blocking the caller. These tests watch the fabric through a tap, which has
// no dispatcher: what a call sent is in the tap when the call returns, or it
// was not sent by that call.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// tapped is one packet the sender put on the fabric, decoded.
type tapped struct {
	kind, flags uint8
	seq, aux    uint64
	payload     []byte
}

// drainTap decodes every sequenced packet waiting in a tap, in the order
// sent; the acks the conn's receive side sends are skipped.
func drainTap(t *testing.T, ch <-chan fakeBurstPkt) (out []tapped) {
	t.Helper()
	for {
		select {
		case p := <-ch:
			kind, flags, seq, aux, frag, err := decodePacket(p.data, nil)
			if err != nil {
				t.Fatalf("undecodable packet on the fabric: %v", err)
			}
			if kind != pktAck {
				out = append(out, tapped{kind, flags, seq, aux, frag})
			}
		default:
			return out
		}
	}
}

// sendTo delivers one hand-built packet from src to the conn attached as nid
// on the calling goroutine, as a burst of one, the way its fabric would: the
// conn reacts before the call returns.
func sendTo(net *fakeBurstNet, nid, src types.NID, kind, flags uint8, seq, aux uint64, payload []byte) {
	var hdr [pktHeaderSize]byte
	putHeader(&hdr, kind, flags, seq, aux)
	ep := net.node(nid)
	ep.h(src, append(hdr[:], payload...), nil)
	ep.flush()
}

// tappedSender attaches node 1 with its peer, node 2, replaced by a tap.
func tappedSender(t *testing.T, cfg Config) (*fakeBurstNet, *Conn, <-chan fakeBurstPkt) {
	t.Helper()
	net := newFakeBurstNet()
	wire := net.tap(2)
	c, err := Attach(net, 1, cfg, transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return net, c, wire
}

// An eager message is on the fabric when Send returns; a rendezvous message
// has its RTS there, and its body follows from the delivery of the CTS.
func TestSendLeavesFromTheCall(t *testing.T) {
	cfg := quietCfg(8)
	cfg.EagerMax = 1024
	net, c, wire := tappedSender(t, cfg)

	if err := c.Send(2, []byte("eager")); err != nil {
		t.Fatal(err)
	}
	got := drainTap(t, wire)
	if len(got) != 1 || got[0].seq != 0 || msgKind(got[0].flags) != msgApp || string(got[0].payload) != "eager" {
		t.Fatalf("after Send returned the fabric held %+v, want the eager message as packet 0", got)
	}

	frag := net.MTU() - pktHeaderSize
	big := bytes.Repeat([]byte{0x7e}, 2*frag+1) // three fragments, beyond EagerMax
	if err := c.Send(2, big); err != nil {
		t.Fatal(err)
	}
	got = drainTap(t, wire)
	if len(got) != 1 || msgKind(got[0].flags) != msgRTS || got[0].seq != 1 {
		t.Fatalf("after a rendezvous Send returned the fabric held %+v, want its RTS as packet 1", got)
	}

	sendTo(net, 1, 2, pktData, flagFirst|msgCTS<<msgKindShift, 0, 0, nil) // the peer's grant
	got = drainTap(t, wire)
	if len(got) != 3 {
		t.Fatalf("the CTS's delivery sent %d packets, want the body's 3 fragments", len(got))
	}
	var body []byte
	for i, p := range got {
		if p.seq != uint64(2+i) {
			t.Fatalf("fragment %d went out as packet %d, want %d", i, p.seq, 2+i)
		}
		body = append(body, p.payload...)
	}
	if !bytes.Equal(body, big) {
		t.Fatal("the fragments do not reassemble to the message")
	}
}

// A full window does not block Send: what does not fit waits, and each ack
// that reopens the window sends it, in order.
func TestFullWindowQueuesWithoutBlocking(t *testing.T) {
	net, c, wire := tappedSender(t, quietCfg(2))
	const n = 6
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := c.Send(2, []byte{byte(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a full window")
	}
	next := 0
	expect := func(when string, want int) {
		t.Helper()
		got := drainTap(t, wire)
		if len(got) != want {
			t.Fatalf("%s: %d packets went out, want %d", when, len(got), want)
		}
		for _, p := range got {
			if p.seq != uint64(next) || len(p.payload) != 1 || p.payload[0] != byte(next) {
				t.Fatalf("%s: packet %d carried message %v, want %d", when, p.seq, p.payload, next)
			}
			next++
		}
	}
	expect("after six Sends into a window of two", 2)
	sendTo(net, 1, 2, pktAck, 0, 1, 0, nil)
	expect("after an ack of one packet", 1)
	sendTo(net, 1, 2, pktAck, 0, 3, 0, nil)
	expect("after an ack of two more", 2)
	sendTo(net, 1, 2, pktAck, 0, 3, 0, nil) // a duplicate opens nothing
	expect("after a duplicate ack", 0)
	sendTo(net, 1, 2, pktAck, 0, 5, 0, nil)
	expect("after the ack that leaves one waiting message", 1)
	if st, _ := c.Peer(2); st.NextSeq != n || st.InFlight != 1 {
		t.Fatalf("peer state %+v, want all %d sequenced and one in flight", st, n)
	}
}

// A grant is owed, not sent, while the window is full, and the delivery of
// the RTS that asked for it returns at once: the ack that reopens the window
// sends the CTS ahead of the messages still waiting.
func TestOwedGrantWaitsForTheWindow(t *testing.T) {
	net, c, wire := tappedSender(t, quietCfg(2))
	for i := 0; i < 3; i++ {
		if err := c.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainTap(t, wire); len(got) != 2 {
		t.Fatalf("%d packets in a window of two", len(got))
	}

	// The peer announces a rendezvous (no handler is asked: the grant is owed
	// at once).
	rts := make([]byte, rtsSize+transport.HeadSize)
	binary.BigEndian.PutUint64(rts, 64<<10)
	sendTo(net, 1, 2, pktData, flagFirst|msgRTS<<msgKindShift, 0, uint64(len(rts)), rts)
	if got := drainTap(t, wire); len(got) != 0 {
		t.Fatalf("the RTS's delivery sent %+v through a full window", got)
	}
	if n := c.Stats().CTSSent.Load(); n != 0 {
		t.Fatalf("CTSSent = %d with the window full", n)
	}

	sendTo(net, 1, 2, pktAck, 0, 1, 0, nil)
	got := drainTap(t, wire)
	if len(got) != 1 || msgKind(got[0].flags) != msgCTS || got[0].seq != 2 {
		t.Fatalf("the ack that reopened the window sent %+v, want the owed CTS as packet 2", got)
	}
	sendTo(net, 1, 2, pktAck, 0, 2, 0, nil)
	got = drainTap(t, wire)
	if len(got) != 1 || msgKind(got[0].flags) != msgApp || got[0].seq != 3 || got[0].payload[0] != 2 {
		t.Fatalf("the next ack sent %+v, want the waiting message as packet 3", got)
	}
}

// The receive goroutine yields once, with the stream's lock free, when a CTS
// releases a held message and its first fragments go out — and on no other
// path: not from a Send, an ack that refills the window, a grant owed to the
// peer, or a stray CTS. The counter stands in for runtime.Gosched; each step
// runs on the test's goroutine and its packets are in the tap when it returns.
func TestGrantedBodyYieldsOutsideTheLock(t *testing.T) {
	cfg := quietCfg(2)
	cfg.EagerMax = 1024
	net, c, wire := tappedSender(t, cfg)
	s, err := c.sender(2)
	if err != nil {
		t.Fatal(err)
	}
	yields, locked := 0, 0
	prev := yield
	yield = func() {
		if s.mu.TryLock() {
			s.mu.Unlock()
		} else {
			locked++
		}
		yields++
	}
	t.Cleanup(func() { yield = prev })

	big := bytes.Repeat([]byte{0x5a}, 2*(net.MTU()-pktHeaderSize)+1) // three fragments, beyond EagerMax
	rts := make([]byte, rtsSize+transport.HeadSize)
	binary.BigEndian.PutUint64(rts, 4096)
	send := func(msg []byte) func() {
		return func() {
			if err := c.Send(2, msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	cts := func(seq uint64) func() {
		return func() { sendTo(net, 1, 2, pktData, flagFirst|msgCTS<<msgKindShift, seq, 0, nil) }
	}
	ack := func(cum uint64) func() { return func() { sendTo(net, 1, 2, pktAck, 0, cum, 0, nil) } }

	for _, step := range []struct {
		what   string
		do     func()
		sent   int   // sequenced packets the step puts on the fabric
		yields int   // yields so far
		stray  int64 // stray grants so far
	}{
		{"a CTS with nothing held", cts(0), 0, 0, 1},
		{"an eager send", send([]byte("eager")), 1, 0, 1},
		{"the peer's RTS, granted at once (oweCTS)", func() {
			sendTo(net, 1, 2, pktData, flagFirst|msgRTS<<msgKindShift, 1, uint64(len(rts)), rts)
		}, 1, 0, 1},
		{"a rendezvous send into the full window (enqueue)", send(big), 0, 0, 1},
		{"the ack that sends its RTS (onAck)", ack(2), 1, 0, 1},
		{"the CTS that releases the body", cts(2), 1, 1, 1},
		{"a CTS for the message already granted", cts(3), 0, 1, 2},
		{"the ack that sends the rest of the body (onAck)", ack(4), 2, 1, 2},
		{"the ack that empties the window", ack(6), 0, 1, 2},
		{"an eager send", send([]byte("eager")), 1, 1, 2},
		{"a rendezvous send, its RTS filling the window", send(big), 1, 1, 2},
		{"a CTS while the window is full", cts(4), 0, 1, 2},
		{"a second CTS for the held message", cts(5), 0, 1, 3},
		{"the ack that releases the granted body (onAck)", ack(8), 2, 1, 3},
		{"the ack that sends its last fragment", ack(10), 1, 1, 3},
	} {
		step.do()
		if got := len(drainTap(t, wire)); got != step.sent {
			t.Fatalf("%s: %d packets went out, want %d", step.what, got, step.sent)
		}
		if yields != step.yields {
			t.Fatalf("%s: %d yields so far, want %d", step.what, yields, step.yields)
		}
		if got := c.Stats().StrayGrants.Load(); got != step.stray {
			t.Fatalf("%s: %d stray grants so far, want %d", step.what, got, step.stray)
		}
	}
	if locked != 0 {
		t.Fatalf("%d of %d yields held the stream's lock", locked, yields)
	}
}

// The stream toward a peer costs no goroutine: a packet leaves from a call,
// and a resend from the retransmission timer's callback. Nor does it cost a
// whole window of descriptors: one message in flight holds a ring of two.
func TestNoGoroutinePerPeer(t *testing.T) {
	net := newFakeBurstNet()
	const peers = 32
	for p := 0; p < peers; p++ {
		net.tap(types.NID(100 + p))
	}
	c, err := Attach(net, 1, quietCfg(8), transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := runtime.NumGoroutine()
	for p := 0; p < peers; p++ {
		if err := c.Send(types.NID(100+p), []byte("hi")); err != nil {
			t.Fatal(err)
		}
	}
	// Slack for goroutines of earlier tests still winding down; one per peer
	// is far outside it.
	if grew := runtime.NumGoroutine() - before; grew > peers/4 {
		t.Fatalf("first contact with %d peers started %d goroutines, want none", peers, grew)
	}
	for p := 0; p < peers; p++ {
		if st, _ := c.Peer(types.NID(100 + p)); st.InFlight != 1 || st.Ring > 2 {
			t.Fatalf("peer %d: %d packets in flight in a ring of %d; want 1 in at most 2", p, st.InFlight, st.Ring)
		}
	}
}

// Senders on several goroutines share one stream: each Send sequences its
// fragments under the stream's lock, so a message's fragments stay
// contiguous however the calls — and the acks that refill the window —
// interleave, and each caller's messages arrive in the order it sent them.
func TestConcurrentSendersKeepFragmentsContiguous(t *testing.T) {
	fabric := simnet.Instant()
	fabric.MTU = 256
	a, _, _, sb, _ := pairOn(t, fabric, Config{Window: 4, EagerMax: 2048})
	const callers, each = 4, 40
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// 1 to 12 fragments; every fifth beyond EagerMax, by rendezvous.
				msg := bytes.Repeat([]byte(fmt.Sprintf("%d:%03d;", g, i)), 40+(g*each+i)%7*60)
				if i%5 == 4 {
					msg = bytes.Repeat(msg, 2)
				}
				if err := a.Send(2, msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, 20*time.Second, func() bool { return sb.count() == callers*each })
	next := make([]int, callers)
	for k := 0; k < callers*each; k++ {
		m := sb.get(k)
		var g, i int
		if _, err := fmt.Sscanf(string(m[:6]), "%d:%03d;", &g, &i); err != nil {
			t.Fatalf("message %d does not start with its tag: %q", k, m[:6])
		}
		if i != next[g] {
			t.Fatalf("caller %d's message %d arrived where %d was due", g, i, next[g])
		}
		next[g]++
		if !bytes.Equal(m, bytes.Repeat(m[:6], len(m)/6)) || len(m)%6 != 0 {
			t.Fatalf("caller %d's message %d arrived interleaved with another", g, i)
		}
	}
	if a.Stats().RTSSent.Load() == 0 {
		t.Fatal("no message went by rendezvous")
	}
}

// BenchmarkRoundTrip64 is a 64-byte ping-pong between two reliable
// endpoints on a zero-wire simnet fabric: the initiator sends from its own
// goroutine, and the peer echoes from its delivery handler.
func BenchmarkRoundTrip64(b *testing.B) {
	net := simnet.New(simnet.Instant())
	defer net.Close()
	cfg := Config{RTO: 200 * time.Millisecond, RTOMin: 200 * time.Millisecond}
	back := make(chan struct{}, 1)
	a, err := attachSim(net, 1, cfg, func(types.NID, []byte) { back <- struct{}{} })
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	var echo *Conn
	echo, err = attachSim(net, 2, cfg, func(_ types.NID, msg []byte) {
		if err := echo.Send(1, msg); err != nil {
			b.Error(err)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer echo.Close()
	msg := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(2, msg); err != nil {
			b.Fatal(err)
		}
		<-back
	}
}
