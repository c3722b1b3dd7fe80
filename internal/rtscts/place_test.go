package rtscts

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// landing is a test sink: the memory one announced message is placed in.
type landing struct {
	mu      sync.Mutex
	mem     []byte // the whole message; the handler fills in the head
	written int
	aborts  int
}

func (l *landing) WriteAt(off int, p []byte) {
	l.mu.Lock()
	l.written += copy(l.mem[off:], p)
	l.mu.Unlock()
}

func (l *landing) Abort() {
	l.mu.Lock()
	l.aborts++
	l.mu.Unlock()
}

// placer is a batch handler that asked for announcements. Its answer to each
// is taken from answers in order (Place when they run out); with hold set it
// keeps announcements unanswered until the test answers them itself.
type placer struct {
	mu       sync.Mutex
	answers  []transport.Verdict
	hold     bool
	held     []transport.Delivery
	sinks    []*landing // every sink offered, in announcement order
	refused  int        // Place answers the fabric did not take
	whole    [][]byte   // messages that arrived whole, and placed ones once complete
	aborted  int        // completions that said Aborted
	maxBuf   int        // largest pooled buffer any delivery carried
	complete int        // completions that did not
}

func (p *placer) batch(batch []transport.Delivery) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range batch {
		d := &batch[i]
		if d.Buf != nil {
			p.maxBuf = max(p.maxBuf, cap(d.Buf.Bytes()))
		}
		switch {
		case d.Sink != nil:
			l := d.Sink.(*landing)
			d.Sink = nil
			if d.Aborted {
				p.aborted++
			} else {
				p.complete++
				p.whole = append(p.whole, l.mem)
			}
		case d.Total != 0:
			if p.hold {
				p.held = append(p.held, *d)
				*d = transport.Delivery{}
				continue
			}
			p.answer(d)
		default:
			p.whole = append(p.whole, append([]byte(nil), d.Msg...))
		}
		d.Release()
	}
}

// answer gives the next scripted answer to announcement d. Called with mu held.
func (p *placer) answer(d *transport.Delivery) {
	v := transport.Place
	if len(p.answers) > 0 {
		v, p.answers = p.answers[0], p.answers[1:]
	}
	switch v {
	case transport.Place:
		l := &landing{mem: make([]byte, d.Total)}
		copy(l.mem, d.Msg)
		p.sinks = append(p.sinks, l)
		if !d.Place(l) {
			p.refused++
		}
	case transport.Discard:
		d.Discard()
	}
}

func (p *placer) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.whole)
}

// attachPlacer attaches a Conn whose handler takes announcements.
func attachPlacer(t *testing.T, net *simnet.Network, nid types.NID, cfg Config, p *placer) *Conn {
	t.Helper()
	c, err := Attach(simPacketNetwork{net}, nid, cfg, p.batch)
	if err != nil {
		t.Fatal(err)
	}
	c.Announce()
	return c
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// A rendezvous message to a handler that asked lands in the handler's sink:
// no delivery buffer is obtained, the CTS follows the answer, and eager
// traffic around it keeps its place in the order.
func TestPlacedRendezvous(t *testing.T) {
	held := pooltest.Baseline(t)
	fabric := simnet.Instant()
	fabric.MTU = 1024
	net := simnet.New(fabric)
	var p placer
	b := attachPlacer(t, net, 2, Config{}, &p)
	a, err := attachSim(net, 1, Config{}, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	big := pattern(100_000)
	for _, msg := range [][]byte{[]byte("before"), big, []byte("after")} {
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return p.count() == 3 })
	p.mu.Lock()
	for i, want := range [][]byte{[]byte("before"), big, []byte("after")} {
		if !bytes.Equal(p.whole[i], want) {
			t.Errorf("message %d arrived damaged or out of order (%d bytes, want %d)", i, len(p.whole[i]), len(want))
		}
	}
	if p.maxBuf >= len(big) {
		t.Errorf("a delivery carried a %d-byte pooled buffer: the placed message was reassembled", p.maxBuf)
	}
	if l := p.sinks[0]; l.written != len(big)-transport.HeadSize || l.aborts != 0 {
		t.Errorf("sink took %d bytes and %d aborts, want %d and 0", l.written, l.aborts, len(big)-transport.HeadSize)
	}
	p.mu.Unlock()
	st := b.Stats()
	if st.Placed.Load() != 1 || st.PlacedBytes.Load() != int64(len(big)-transport.HeadSize) || st.MsgsDelivered.Load() != 3 {
		t.Errorf("placed %d messages / %d bytes, delivered %d; want 1 / %d, 3",
			st.Placed.Load(), st.PlacedBytes.Load(), st.MsgsDelivered.Load(), len(big)-transport.HeadSize)
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, held)
}

// The CTS is the handler's answer: while the announcement is unanswered the
// peer sends nothing, and a Buffer or Discard answer is honoured as given.
func TestCTSWaitsForTheAnswer(t *testing.T) {
	held := pooltest.Baseline(t)
	net := simnet.New(simnet.Instant())
	p := placer{hold: true}
	b := attachPlacer(t, net, 2, Config{}, &p)
	a, err := attachSim(net, 1, Config{}, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{pattern(40_000), pattern(50_000), pattern(60_000)}
	p.answers = []transport.Verdict{transport.Buffer, transport.Discard, transport.Place}
	for i, msg := range msgs {
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return len(p.held) == 1
		})
		time.Sleep(5 * time.Millisecond) // long enough for an early CTS to show
		if got := b.Stats().CTSSent.Load(); got != int64(i) {
			t.Fatalf("message %d: %d grants sent before its announcement was answered, want %d", i, got, i)
		}
		p.mu.Lock()
		d := p.held[0]
		p.held = nil
		if d.Total != len(msg) || !bytes.Equal(d.Msg, msg[:transport.HeadSize]) {
			t.Errorf("announcement %d: total %d head %d bytes, want %d and the first %d of the message", i, d.Total, len(d.Msg), len(msg), transport.HeadSize)
		}
		p.answer(&d)
		d.Release()
		p.mu.Unlock()
		waitFor(t, 5*time.Second, func() bool { st, _ := a.Peer(2); return st.InFlight == 0 && b.Stats().CTSSent.Load() == int64(i+1) })
	}
	waitFor(t, 5*time.Second, func() bool { return p.count() == 2 })
	p.mu.Lock()
	if !bytes.Equal(p.whole[0], msgs[0]) || !bytes.Equal(p.whole[1], msgs[2]) {
		t.Error("the buffered and the placed message did not arrive intact, in order, around the discarded one")
	}
	p.mu.Unlock()
	if st := b.Stats(); st.AnnounceDiscarded.Load() != 1 || st.Placed.Load() != 1 || st.BadLength.Load() != 0 {
		t.Errorf("discarded %d placed %d bad %d, want 1 1 0", st.AnnounceDiscarded.Load(), st.Placed.Load(), st.BadLength.Load())
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, held)
}

// A handler that asked and then lets every announcement fall on the floor —
// Release, no answer — gets its messages whole, and the peer is never left
// waiting for a grant.
func TestUnansweredAnnouncementIsBuffered(t *testing.T) {
	held := pooltest.Baseline(t)
	net := simnet.New(simnet.Instant())
	var mu sync.Mutex
	var whole [][]byte
	b, err := Attach(simPacketNetwork{net}, 2, Config{}, func(batch []transport.Delivery) {
		for i := range batch {
			if batch[i].Total == 0 {
				mu.Lock()
				whole = append(whole, append([]byte(nil), batch[i].Msg...))
				mu.Unlock()
			}
			batch[i].Release()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Announce()
	a, err := attachSim(net, 1, Config{}, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{pattern(70_000), []byte("small"), pattern(33_000)}
	for _, msg := range msgs {
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(whole) == len(msgs) })
	for i := range msgs {
		if !bytes.Equal(whole[i], msgs[i]) {
			t.Errorf("message %d did not arrive whole and in order", i)
		}
	}
	if st := b.Stats(); st.Placed.Load() != 0 || st.CTSSent.Load() != 2 {
		t.Errorf("placed %d, grants %d; want 0, 2", st.Placed.Load(), st.CTSSent.Load())
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, held)
}

// Everything an announcement says is the peer's word (TestHostileLengths has
// the malformed ones), and so is what follows it. Whatever the peer does between RTS and the end of the body, a sink
// that was given is ended exactly once — completed or aborted — no
// message-sized buffer is obtained for a placed message, nothing is counted
// twice, and the stream stays usable.
func TestHostilePlacement(t *testing.T) {
	const peer = 7
	const total = 9000 // announced length; three fragments at the test's 4000-byte cut
	first := func(kind uint8) uint8 { return flagFirst | kind<<msgKindShift }
	msg := pattern(total)
	rts := func(announced int, head []byte) []byte {
		return append(binary.BigEndian.AppendUint64(nil, uint64(announced)), head...)
	}
	type pkt struct {
		flags   uint8
		aux     uint64
		payload []byte
	}
	announce := pkt{first(msgRTS), rtsSize + transport.HeadSize, rts(total, msg[:transport.HeadSize])}
	frag := func(i int) pkt { // the i-th fragment of msg
		lo, hi := i*4000, min((i+1)*4000, total)
		if i == 0 {
			return pkt{first(msgApp), total, msg[lo:hi]}
		}
		return pkt{0, 0, msg[lo:hi]}
	}

	for _, tc := range []struct {
		name     string
		hold     bool  // keep announcements unanswered until the packets are in
		pkts     []pkt // fed in sequence after nothing
		closing  bool  // close the Conn after the packets instead of sending "hello"
		sinks    int   // sinks offered
		refused  int   // of those, not taken
		aborts   int   // aborted completions handed up, plus direct Aborts
		complete int   // whole completions
		whole    int   // messages that arrived (whole or placed) before "hello"
		bad      int64 // bodies swallowed as sent without a grant (bad_length)
	}{
		{name: "well-formed", pkts: []pkt{announce, frag(0), frag(1), frag(2)}, sinks: 1, complete: 1, whole: 1},
		{name: "different length after the RTS",
			pkts:  []pkt{announce, {first(msgApp), 5, []byte("other")}},
			sinks: 1, aborts: 1, whole: 1},
		{name: "second RTS before the body",
			pkts:  []pkt{announce, announce, frag(0), frag(1), frag(2)},
			sinks: 2, aborts: 1, complete: 1, whole: 1},
		{name: "second RTS before the first answer", hold: true,
			pkts:  []pkt{announce, announce},
			sinks: 2, refused: 1, aborts: 1}, // the second is voided by the message that follows
		{name: "body before the answer", hold: true,
			pkts:  []pkt{announce, frag(0), frag(1), frag(2)},
			sinks: 1, refused: 1, bad: 1},
		{name: "body overrun",
			pkts:  []pkt{announce, frag(0), frag(1), {0, 0, make([]byte, 2000)}},
			sinks: 1, aborts: 1},
		{name: "new message mid-body",
			pkts:  []pkt{announce, frag(0), {first(msgApp), 5, []byte("other")}},
			sinks: 1, aborts: 1, whole: 1},
		{name: "peer gone mid-body, then Close", closing: true,
			pkts:  []pkt{announce, frag(0), frag(1)},
			sinks: 1, aborts: 1},
		{name: "granted and never sent, then Close", closing: true,
			pkts:  []pkt{announce},
			sinks: 1, aborts: 1},
		{name: "unanswered at Close", hold: true, closing: true,
			pkts:  []pkt{announce},
			sinks: 1, refused: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			held := pooltest.Baseline(t)
			net := simnet.New(simnet.Instant())
			p := placer{hold: tc.hold}
			c := attachPlacer(t, net, 1, Config{EagerMax: 4096}, &p)
			seq := uint64(0)
			feed := func(k pkt) {
				c.gatedPacket(peer, testPacket(pktData, k.flags, seq, k.aux, k.payload), nil)
				seq++
				c.flush()
				r := c.receiver(peer)
				r.mu.Lock()
				if r.verdict == transport.Place && r.asm != nil {
					t.Error("a placed message holds a delivery buffer")
				}
				r.mu.Unlock()
			}
			for _, k := range tc.pkts {
				feed(k)
			}
			answerHeld := func() {
				p.mu.Lock()
				for i := range p.held {
					p.answer(&p.held[i])
					p.held[i].Release()
				}
				p.held = nil
				p.mu.Unlock()
			}
			if tc.closing {
				c.Close()
				answerHeld()
			} else {
				answerHeld()
				feed(pkt{first(msgApp), 5, []byte("hello")})
				waitFor(t, 5*time.Second, func() bool { return p.count() == tc.whole+1 })
				p.mu.Lock()
				if got := string(p.whole[tc.whole]); got != "hello" {
					t.Errorf("message after the hostile sequence = %q, want hello", got)
				}
				if tc.complete == 1 && !bytes.Equal(p.whole[tc.whole-1], msg) {
					t.Error("the placed message is damaged")
				}
				p.mu.Unlock()
			}

			p.mu.Lock()
			aborts := p.aborted
			for _, l := range p.sinks {
				aborts += l.aborts
			}
			if len(p.sinks) != tc.sinks || p.refused != tc.refused || aborts != tc.aborts || p.complete != tc.complete {
				t.Errorf("sinks %d refused %d aborted %d complete %d, want %d %d %d %d",
					len(p.sinks), p.refused, aborts, p.complete, tc.sinks, tc.refused, tc.aborts, tc.complete)
			}
			if tc.sinks != tc.refused+tc.aborts+tc.complete {
				t.Errorf("bad table row: every sink must be refused, aborted or completed")
			}
			p.mu.Unlock()
			// The abort is the one account of each of these; only a body
			// that did not wait for its grant is counted as malformed.
			if got := c.Stats().BadLength.Load(); got != tc.bad {
				t.Errorf("bad_length = %d, want %d", got, tc.bad)
			}
			if d, o := c.Stats().DupsDiscarded.Load(), c.Stats().OutOfOrder.Load(); d != 0 || o != 0 {
				t.Errorf("in-sequence packets counted as dup (%d) or out of order (%d)", d, o)
			}
			c.Close()
			net.Close()
			waitBalanced(t, held)
		})
	}
}

// flatSink lands every placed message in one buffer, as a window descriptor
// does; it allocates nothing per message.
type flatSink struct{ mem []byte }

func (f *flatSink) WriteAt(off int, p []byte) { copy(f.mem[off:], p) }
func (f *flatSink) Abort()                    {}

// BenchmarkPlacedBulk256K is a put with an ack, 256 KiB at a time, between
// two reliable endpoints over zero-wire simnet at the bulk workload's 4 KiB
// MTU, four in flight. The target's handler asked for announcements: it
// places each message into a flat sink and, on its completion, sends the
// initiator a small ack, whose delivery lets the next message go. A message
// is RTS, answer, CTS, 64 fragments written through, completion, the ack and
// the stream acks, with the initiator's link pumping a body while the
// target's lands the one before.
func BenchmarkPlacedBulk256K(b *testing.B) {
	const size, inFlight = 256 << 10, 4
	fabric := simnet.Instant()
	fabric.MTU = 4096
	net := simnet.New(fabric)
	defer net.Close()
	cfg := Config{RTO: 200 * time.Millisecond, RTOMin: 200 * time.Millisecond}
	sink := &flatSink{mem: make([]byte, size)}
	ack := make([]byte, 16)
	var rx *Conn
	rx, err := Attach(simPacketNetwork{net}, 2, cfg, func(batch []transport.Delivery) {
		for i := range batch {
			d := &batch[i]
			switch {
			case d.Sink != nil:
				d.Sink = nil
				if err := rx.Send(1, ack); err != nil {
					b.Error(err)
				}
			case d.Total != 0:
				d.Place(sink)
			}
			d.Release()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	rx.Announce()
	acked := make(chan struct{}, inFlight)
	tx, err := attachSim(net, 1, cfg, func(types.NID, []byte) { acked <- struct{}{} })
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Close()

	msg := make([]byte, size)
	send := func() {
		if err := tx.Send(2, msg); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < inFlight; i++ {
		send()
	}
	for i := 0; i < 100; i++ { // warm pools, rings and per-peer state
		<-acked
		send()
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		<-acked
		send()
	}
	b.StopTimer()
	for i := 0; i < inFlight; i++ {
		<-acked
	}
	if rx.Stats().Placed.Load() == 0 {
		b.Fatal("no message was placed")
	}
}
