package rtscts

import (
	"bytes"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/bufpool/pooltest"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// waitBalanced waits for every buffer acquired since the test's baseline to
// be released: after Close, links and lanes drain on their own goroutines.
func waitBalanced(t *testing.T, held func() int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for held() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffers outstanding: %d more than before the test", held())
		}
		time.Sleep(time.Millisecond)
	}
}

// SendBuf takes both buffers on every path, its refusals included: a
// message longer than MaxMessage, and one sent after Close. Each body is
// lent, so its return to the lender is what shows it was released.
func TestSendBufRefusalsRelease(t *testing.T) {
	held := pooltest.Baseline(t)
	net := simnet.New(simnet.Instant())
	defer net.Close()
	c, err := attachSim(net, 1, Config{}, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	// MaxMessage/1 MiB + 1 segments of one 1 MiB slice: a body longer than
	// MaxMessage without a 1 GiB allocation.
	mem := make([]byte, 1<<20)
	segs := make([][]byte, MaxMessage/len(mem)+1)
	for i := range segs {
		segs[i] = mem
	}
	var loan bufpool.Buf
	lent0, back0 := bufpool.Loans()
	if err := c.SendBuf(2, bufpool.Get(64), loan.Lend(nil, segs, func() {})); err == nil {
		t.Error("a message longer than MaxMessage was accepted")
	}
	if lent, back := bufpool.Loans(); lent-lent0 != 1 || back-back0 != 1 {
		t.Errorf("over MaxMessage: loans lent/returned delta = %d/%d, want 1/1", lent-lent0, back-back0)
	}
	c.Close()
	if err := c.SendBuf(2, bufpool.Get(64), loan.Lend(mem, nil, func() {})); err == nil {
		t.Error("SendBuf after Close succeeded")
	}
	if lent, back := bufpool.Loans(); lent-lent0 != 2 || back-back0 != 2 {
		t.Errorf("after Close: loans lent/returned delta = %d/%d, want 2/2", lent-lent0, back-back0)
	}
	if n := held(); n != 0 {
		t.Errorf("%d pooled buffers outstanding after the refusals", n)
	}
}

// Send's contract is a copy: the caller may scribble on its slice the
// moment Send returns, while the message is still queued or being
// retransmitted out of the layer's own buffer.
func TestSendCopiesBeforeReturning(t *testing.T) {
	held := pooltest.Baseline(t)
	net := simnet.New(simnet.Config{MTU: 512, LossRate: 0.2, Seed: 11})
	var sb msgSink
	a, err := attachSim(net, 1, Config{RTO: 2 * time.Millisecond, EagerMax: 1024}, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := attachSim(net, 2, Config{}, sb.handler)
	if err != nil {
		t.Fatal(err)
	}
	const count = 40
	scratch := make([]byte, 3000) // six fragments, rendezvous
	for i := 0; i < count; i++ {
		for j := range scratch {
			scratch[j] = byte(i + j)
		}
		if err := a.Send(2, scratch); err != nil {
			t.Fatal(err)
		}
		for j := range scratch {
			scratch[j] = 0xEE
		}
	}
	waitFor(t, 60*time.Second, func() bool { return sb.count() == count })
	for i := 0; i < count; i++ {
		for j, v := range sb.get(i) {
			if v != byte(i+j) {
				t.Fatalf("message %d byte %d = %#x: the layer read the caller's slice after Send returned", i, j, v)
			}
		}
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, held)
}

// witness is a packet network that checks what the reference-carrying fabric
// makes checkable: a packet's payload is the sender's own message buffer, so
// every transmission of a sequence number — first, fast retransmit, timeout
// retransmit — must carry the bytes its first one did, every delivery must
// hand the receiver those bytes however late it comes, and the receive path
// must leave them as it found them. With dropFinal it also loses the first
// transmission of every application message's final fragment, so the message
// can only complete through a retransmission — which, with a 1 ms RTO, fires
// while acks for the rest of the window are still retiring descriptors.
type witness struct {
	simPacketNetwork
	t         *testing.T
	dropFinal bool

	mu      sync.Mutex
	sums    map[pktKey]uint32 // payload checksum of each data packet's first transmission
	resent  int               // later transmissions, each checked against the first
	arrived []pktKey          // data packets in the order the fabric delivered them
	finals  []uint64          // the sequence number of each application message's final fragment
}

type pktKey struct {
	src, dst types.NID
	seq      uint64
}

func newWitness(t *testing.T, net *simnet.Network) *witness {
	return &witness{simPacketNetwork: simPacketNetwork{net}, t: t, sums: make(map[pktKey]uint32)}
}

func (w *witness) AttachPacket(nid types.NID, h PacketHandler, flush func()) (PacketEndpoint, error) {
	watched := func(src types.NID, hdr, payload []byte) {
		kind, _, seq, _, frag, err := decodePacket(hdr, payload)
		if err != nil || kind != pktData {
			h(src, hdr, payload)
			return
		}
		key, sum := pktKey{src, nid, seq}, crc32.ChecksumIEEE(frag)
		w.mu.Lock()
		if first, sent := w.sums[key]; !sent || first != sum {
			w.t.Errorf("packet %d from %d arrived with other bytes than its first transmission carried", seq, src)
		}
		w.arrived = append(w.arrived, key)
		w.mu.Unlock()
		h(src, hdr, payload)
		if crc32.ChecksumIEEE(frag) != sum {
			w.t.Errorf("the receive path wrote through packet %d from %d: that is the sender's message buffer", seq, src)
		}
	}
	ep, err := w.simPacketNetwork.AttachPacket(nid, watched, flush)
	if err != nil {
		return nil, err
	}
	return &witnessEP{PacketEndpoint: ep, w: w}, nil
}

// arrivedAfter reports whether a data packet of src's stream to dst below
// seq is among the deliveries from index mark on.
func (w *witness) arrivedAfter(mark int, src, dst types.NID, seq uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, k := range w.arrived[mark:] {
		if k.src == src && k.dst == dst && k.seq < seq {
			return true
		}
	}
	return false
}

func (w *witness) counts() (resent, arrived int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.resent, len(w.arrived)
}

type witnessEP struct {
	PacketEndpoint
	w    *witness
	left uint64 // bytes of the current application message still to come
}

func (ep *witnessEP) SendPacket(dst types.NID, hdr, payload []byte, owner *bufpool.Buf) error {
	kind, flags, seq, aux, _, err := decodePacket(hdr, payload)
	if err == nil && kind == pktData {
		key, sum := pktKey{ep.LocalNID(), dst, seq}, crc32.ChecksumIEEE(payload)
		w := ep.w
		w.mu.Lock()
		first, sent := w.sums[key]
		drop := false
		if !sent { // first transmission: track the message it belongs to
			w.sums[key] = sum
			if flags&flagFirst != 0 {
				ep.left = 0
				if msgKind(flags) == msgApp {
					ep.left = aux
				}
			}
			if ep.left > 0 {
				ep.left -= uint64(len(payload))
				drop = w.dropFinal && ep.left == 0
				if ep.left == 0 {
					w.finals = append(w.finals, seq)
				}
			}
		} else {
			w.resent++
			if first != sum {
				w.t.Errorf("retransmission of packet %d to %d carries other bytes than its first transmission", seq, dst)
			}
		}
		w.mu.Unlock()
		if drop {
			return nil
		}
	}
	return ep.PacketEndpoint.SendPacket(dst, hdr, payload, owner)
}

// The ack that retires a message's fragments releases the descriptors'
// references to the message buffer; a retransmission showing the fabric that
// buffer at the same moment would show it memory that may be the next
// message's already. Both happen under the window lock, so the race detector
// stays quiet, every retransmission carries the bytes of its first
// transmission (witness), and the messages arrive intact. The timeout is
// pinned at 1 ms under a fabric whose round trip is longer, so besides the
// forced loss nearly every window is also resent while its acks are on
// their way back.
func TestRetransmitRacesRetiringAck(t *testing.T) {
	held := pooltest.Baseline(t)
	net := simnet.New(simnet.Config{MTU: 1024, Latency: 700 * time.Microsecond})
	pn := newWitness(t, net)
	pn.dropFinal = true
	cfg := Config{RTO: time.Millisecond, RTOMin: time.Millisecond, RTOMax: time.Millisecond, EagerMax: 2048, Window: 8}
	var sb msgSink
	a, err := Attach(pn, 1, cfg, transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Attach(pn, 2, cfg, transport.Borrow(sb.handler))
	if err != nil {
		t.Fatal(err)
	}
	const count = 60
	var want [][]byte
	for i := 0; i < count; i++ {
		msg := make([]byte, 5000+i*13) // rendezvous, five or six fragments
		for j := range msg {
			msg[j] = byte(i*7 + j)
		}
		want = append(want, msg)
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 60*time.Second, func() bool { return sb.count() == count })
	for i := range want {
		if !bytes.Equal(sb.get(i), want[i]) {
			t.Fatalf("message %d corrupted: a retransmission read a recycled buffer", i)
		}
	}
	if a.Stats().Retransmits.Load() < count {
		t.Fatalf("only %d retransmissions for %d lost final fragments", a.Stats().Retransmits.Load(), count)
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, held)
}

// A fabric's reference must outlive the ack that retires its message. Every
// packet of this fabric is duplicated and every other duplicate waits in the
// link's reorder buffer for the next packet to pass — which, behind a
// message's last fragment, comes only with the next message: by then the
// original has been delivered and acknowledged and the sender's window has
// let the buffer go. Until that late delivery the buffer stays out of the
// pool, the bytes delivered are the ones first sent (witness), and afterwards
// the pool is whole again.
func TestLinkReferenceOutlivesRetiringAck(t *testing.T) {
	held := pooltest.Baseline(t)
	net := simnet.New(simnet.Config{MTU: 1024, DupRate: 1, ReorderRate: 1, Seed: 1})
	pn := newWitness(t, net)
	cfg := Config{RTO: 50 * time.Millisecond, RTOMin: 50 * time.Millisecond, Window: 8}
	var sb msgSink
	a, err := Attach(pn, 1, cfg, transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Attach(pn, 2, cfg, transport.Borrow(sb.handler))
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	// send puts one more message through and waits until it has been
	// delivered and every packet of it acknowledged.
	send := func(size int) {
		t.Helper()
		msg := make([]byte, size)
		for j := range msg {
			msg[j] = byte(sent*11 + j)
		}
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
		sent++
		waitFor(t, 10*time.Second, func() bool {
			st, _ := a.Peer(2)
			return sb.count() == sent && st.InFlight == 0
		})
		if !bytes.Equal(sb.get(sent-1), msg) {
			t.Fatalf("message %d arrived damaged", sent-1)
		}
	}
	// pinned waits out what is still moving and reports whether a buffer
	// stays out of the pool although nothing is left to deliver or to
	// acknowledge: the link is holding a packet of a retired message.
	pinned := func() bool {
		for calm := 0; calm < 20; calm++ {
			if held() == 0 {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}

	for !pinned() {
		if sent == 20 {
			t.Fatal("no packet was ever left on the link behind the ack of its message")
		}
		// One, two or three fragments: how many packets a message takes is
		// the sender's business (duplicate acks fire fast retransmits), and
		// the reorder buffer is left occupied only by an odd number.
		send(900 * (1 + sent%3))
	}
	st, _ := a.Peer(2)
	_, mark := pn.counts()
	for pinned() {
		if sent == 40 {
			t.Fatal("the link never let go of the retired message")
		}
		send(10) // one packet, which passes the held one
	}
	if !pn.arrivedAfter(mark, 1, 2, st.NextSeq) {
		t.Error("the pool is whole again, but no packet of a retired message was delivered late")
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, held)
}

// The receive path reads the sender's memory, so a 256 KiB message placed
// fragment by fragment across a lossy fabric is the long way round for a
// stray write: through the witness, every one of its retransmissions must
// carry the bytes of the first transmission, and every fragment must leave
// the sink as it entered.
func TestLossyPlacedPutReadsOnlyWhatWasSent(t *testing.T) {
	held := pooltest.Baseline(t)
	net := simnet.New(simnet.Config{MTU: 4096, LossRate: 0.05, DupRate: 0.02, ReorderRate: 0.02, Seed: 23})
	pn := newWitness(t, net)
	cfg := Config{RTO: 5 * time.Millisecond, Window: 16}
	var p placer
	b, err := Attach(pn, 2, cfg, p.batch)
	if err != nil {
		t.Fatal(err)
	}
	b.Announce()
	a, err := Attach(pn, 1, cfg, transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	msg := pattern(256 << 10)
	const puts = 4
	for i := 0; i < puts; i++ {
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 60*time.Second, func() bool { return p.count() == puts })
	p.mu.Lock()
	for i, got := range p.whole {
		if !bytes.Equal(got, msg) {
			t.Errorf("placed message %d arrived damaged", i)
		}
	}
	p.mu.Unlock()
	if got := b.Stats().Placed.Load(); got != puts {
		t.Errorf("%d messages placed, want %d", got, puts)
	}
	if resent, _ := pn.counts(); resent == 0 || a.Stats().Retransmits.Load() == 0 {
		t.Errorf("the witness saw %d retransmissions and the sender counted %d: nothing was tested", resent, a.Stats().Retransmits.Load())
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, held)
}

// A put's body is lent to the fabric, not copied: over a lossy fabric every
// transmission of a placed 256 KiB body reads the sender's region itself
// (witness), and the region comes back — the return that completes the put
// — only once the ack covering the body's final fragment is in, and outside
// the stream's lock (the return reads the stream's state). What the region
// holds after its return is not what the target holds.
func TestLossyPlacedLendReturnsAfterLastAck(t *testing.T) {
	held := pooltest.Baseline(t)
	net := simnet.New(simnet.Config{MTU: 4096, LossRate: 0.05, DupRate: 0.02, ReorderRate: 0.02, Seed: 29})
	pn := newWitness(t, net)
	cfg := Config{RTO: 5 * time.Millisecond, Window: 16}
	var p placer
	b, err := Attach(pn, 2, cfg, p.batch)
	if err != nil {
		t.Fatal(err)
	}
	b.Announce()
	a, err := Attach(pn, 1, cfg, transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	const puts, headLen = 4, transport.HeadSize
	msg := pattern(headLen + 256<<10)
	var returned atomic.Int32
	regions := make([][]byte, puts)
	loans := make([]bufpool.Buf, puts)
	for i := range regions {
		regions[i] = append([]byte(nil), msg[headLen:]...)
		back := func() {
			st, _ := a.Peer(2)
			pn.mu.Lock()
			final := pn.finals[i]
			pn.mu.Unlock()
			if st.Base <= final {
				t.Errorf("body %d returned with its final fragment %d unacknowledged (window base %d)", i, final, st.Base)
			}
			for j := range regions[i] {
				regions[i][j] = ^regions[i][j] // the region is the application's again
			}
			returned.Add(1)
		}
		head := bufpool.Get(headLen)
		copy(head.Bytes(), msg)
		if err := a.SendBuf(2, head, loans[i].Lend(regions[i], nil, back)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 60*time.Second, func() bool { return p.count() == puts && returned.Load() == puts })
	p.mu.Lock()
	for i, got := range p.whole {
		if !bytes.Equal(got, msg) {
			t.Errorf("placed message %d does not hold what was sent", i)
		}
	}
	p.mu.Unlock()
	if got := b.Stats().Placed.Load(); got != puts {
		t.Errorf("%d messages placed, want %d", got, puts)
	}
	if resent, _ := pn.counts(); resent == 0 {
		t.Error("the witness saw no retransmission: nothing was tested")
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, held)
}
