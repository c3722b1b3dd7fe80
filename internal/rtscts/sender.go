package rtscts

import (
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs/trace"
	"repro/internal/transport"
	"repro/internal/types"
)

// dupAckThreshold is the number of duplicate cumulative acks at the window
// base that triggers a fast retransmit (TCP's classic threshold: fewer and
// plain reordering fires spurious resends, more and recovery lags).
const dupAckThreshold = 3

// txDesc describes one sequenced packet awaiting acknowledgment: where its
// payload lies in the message's head buffer or lent body, not a copy of
// it. sent timestamps the first transmission. A retransmitted packet
// carries flagResent in its header, for the receiver to echo, and Karn's
// rule excludes it from RTT sampling (an ack for it is ambiguous — it may
// answer either transmission).
type txDesc struct {
	hdr     [pktHeaderSize]byte // wire header, built at first transmission; flagResent joins it at the first resend
	payload []byte              // a window of owner; empty for header-only packets
	owner   *bufpool.Buf        // the descriptor's own reference to the buffer payload lies in; nil for none
	sent    time.Time
}

// retire takes the descriptor's reference to its message once the packet is
// acknowledged or abandoned, appending it to dead: the caller releases it
// after dropping mu, because the last release of a lent body completes its
// put, and the completion may send to this very peer.
func (d *txDesc) retire(dead *[]*bufpool.Buf) {
	if d.owner != nil {
		*dead = append(*dead, d.owner)
	}
	d.payload, d.owner = nil, nil
}

// peerSender owns the reliable stream toward one destination: the messages
// waiting for it, the Go-Back-N window, and the retransmission timer. The
// stream has no goroutine of its own: a packet leaves from the Send that made
// it when the window has room, and otherwise from the receipt of the ack that
// reopened the window or of the CTS that cleared the rendezvous; a resend
// leaves from the timer's callback, and the timer is armed only while a
// packet is unacked, so an idle stream costs nothing. The window is
// self-tuning: the retransmission timeout tracks the measured RTT
// (Jacobson/Karels), three duplicate acks trigger an immediate Go-Back-N
// resend without waiting out the timer, and the window width adapts —
// multiplicative decrease on any retransmission, additive increase on clean
// ack runs — between minWindow and cfg.Window.
type peerSender struct {
	c   *Conn
	dst types.NID

	// mu guards the whole stream. Packets are transmitted WITH mu held: a
	// descriptor is shown to the fabric and retired only under it, so the ack
	// that retires a message cannot drop the reference a (re)transmission is
	// handing the fabric at that moment, and one holder at a time puts
	// sequenced packets on the stream, which keeps the fragments of one
	// message contiguous (the receiver reassembles one message at a time).
	// SendPacket never blocks and never calls back, so the fabric's locks
	// simply nest inside, as does the flight recorder's.
	//
	//lint:lockrank peerSender.mu < Network.mu
	//lint:lockrank peerSender.mu < link.mu
	//lint:lockrank peerSender.mu < node.qmu
	//lint:lockrank peerSender.mu < Recorder.mu
	mu     sync.Mutex
	closed bool //lint:guardedby mu

	// What waits for the window (pump), in the order it goes out. The queue
	// is unbounded, so Send never blocks: local completion = accepted here.
	// A message is a head buffer and, for a put, the body lent out of the
	// sender's memory descriptor; its fragments are windows of the one and
	// then of the other, none spanning both.
	queue    bufpool.Queue //lint:guardedby mu  messages not begun
	cur      *bufpool.Buf  //lint:guardedby mu  the head of the message whose fragments are going out
	curBody  *bufpool.Buf  //lint:guardedby mu  its lent body; nil for none
	curOff   int           //lint:guardedby mu  bytes of cur and curBody already sequenced
	held     *bufpool.Buf  //lint:guardedby mu  announced by our RTS, waiting for its CTS
	heldBody *bufpool.Buf  //lint:guardedby mu  held's lent body; nil for none
	granted  bool          //lint:guardedby mu  held's CTS arrived
	owedCTS  int           //lint:guardedby mu  RTS announcements from the peer not yet granted

	// acked holds the references onAck retired until it has dropped mu and
	// releases them. Only onAck touches it, and one goroutine at a time
	// feeds the acks of a peer (PacketHandler).
	acked []*bufpool.Buf

	// Window state.
	nextSeq  uint64    //lint:guardedby mu
	base     uint64    //lint:guardedby mu  lowest unacked sequence
	inFlight []txDesc  //lint:guardedby mu  ring of cfg.Window slots; packet seq lives at seq % len
	lastSend time.Time //lint:guardedby mu  last transmission or ack progress: the window stalls from here

	// Adaptive state.
	srtt    time.Duration //lint:guardedby mu  smoothed RTT; 0 = no samples yet
	rttvar  time.Duration //lint:guardedby mu  RTT mean deviation
	rto     time.Duration //lint:guardedby mu  adaptive timeout, [RTOMin, RTOMax]
	wnd     int           //lint:guardedby mu  current window width
	ackRun  int           //lint:guardedby mu  acked pkts since last growth/retransmit
	dupAcks int           //lint:guardedby mu  consecutive dup cumacks at base
	recover uint64        //lint:guardedby mu  fast-retx disabled until base reaches this
	backoff uint          //lint:guardedby mu  timeouts since the last ack progress
	undoWnd int           //lint:guardedby mu  the window before the timeouts since the last progress; the next progress judges them

	timer *time.Timer // the retransmission timer, made stopped (arm)
	armed time.Time   //lint:guardedby mu  the timer's pending deadline; zero: not armed
	rng   *rand.Rand  //lint:guardedby mu  backoff jitter

	// Lock-free mirrors of srtt/rto/wnd for metrics exposition; written
	// under mu, read anywhere.
	srttNs atomic.Int64
	rtoNs  atomic.Int64
	wndNow atomic.Int64
}

func newPeerSender(c *Conn, dst types.NID) *peerSender {
	s := &peerSender{c: c, dst: dst, inFlight: make([]txDesc, c.cfg.Window)}
	s.rto = c.cfg.RTO
	s.wnd = c.cfg.Window
	s.rtoNs.Store(int64(s.rto))
	s.wndNow.Store(int64(s.wnd))
	// Seeded per stream: distinct streams draw distinct jitter.
	s.rng = rand.New(rand.NewPCG(uint64(c.LocalNID()), uint64(dst)))
	s.timer = time.AfterFunc(time.Hour, s.expire)
	s.timer.Stop()
	return s
}

// enqueue accepts one message for the stream, taking head and body, and puts
// on the stream as much of it as the window has room for before returning.
func (s *peerSender) enqueue(head, body *bufpool.Buf) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		head.Release()
		body.Release()
		return types.ErrClosed
	}
	s.queue.Push(head, body)
	s.pump(time.Now())
	s.mu.Unlock()
	return nil
}

// shutdown stops the sender and gives back every buffer it still holds: the
// messages waiting for the window and the in-flight ones, released once mu
// is dropped (retire). Nothing is recorded or transmitted behind the sweep:
// pump and resend check closed under the same lock.
func (s *peerSender) shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var dead []*bufpool.Buf
	for s.queue.Len() > 0 {
		head, body := s.queue.Pop()
		dead = append(dead, head, body)
	}
	dead = append(dead, s.cur, s.curBody, s.held, s.heldBody)
	s.cur, s.curBody, s.held, s.heldBody = nil, nil, nil, nil
	for ; s.base < s.nextSeq; s.base++ {
		s.desc(s.base).retire(&dead)
	}
	s.timer.Stop()
	s.mu.Unlock()
	for _, b := range dead {
		b.Release()
	}
}

// pump puts on the stream whatever waits for it, for as long as the window
// has room: first the rest of a message already begun, then the grants this
// node owes the peer, then a rendezvous message whose grant arrived, then the
// queue in FIFO order. FIFO is what gives Portals its ordered-delivery
// guarantee across eager and rendezvous messages: a message beyond the eager
// threshold is announced by an RTS and held for its CTS, and no later message
// overtakes it — but grants still go out, or two nodes in simultaneous
// rendezvous would deadlock. pump never waits for the window: what it has no
// room for goes out from the ack that reopens it (onAck). now stamps every
// packet it sends. Called with mu held.
//
//lint:requires mu
func (s *peerSender) pump(now time.Time) {
	for !s.closed && s.nextSeq-s.base < uint64(s.wnd) {
		switch {
		case s.cur != nil:
			s.nextFragment(now)
		case s.owedCTS > 0:
			s.owedCTS--
			s.sendPacket(now, flagFirst|msgCTS<<msgKindShift, 0, nil, nil)
			s.c.stats.CTSSent.Add(1)
		case s.held != nil:
			if !s.granted {
				return
			}
			s.cur, s.curBody, s.curOff = s.held, s.heldBody, 0
			s.held, s.heldBody, s.granted = nil, nil, false
		case s.queue.Len() > 0:
			head, body := s.queue.Pop()
			total := len(head.Bytes()) + body.Len()
			if total <= s.c.cfg.EagerMax {
				s.cur, s.curBody, s.curOff = head, body, 0
				continue
			}
			// Rendezvous: announce, then hold the message for the grant. An
			// RTS is one packet (Attach checks the MTU for it): the length,
			// then the message's first HeadSize bytes.
			rts := bufpool.Get(rtsSize + min(total, transport.HeadSize))
			b := rts.Bytes()
			binary.BigEndian.PutUint64(b, uint64(total))
			n := rtsSize + copy(b[rtsSize:], head.Bytes())
			for n < len(b) {
				n += copy(b[n:], body.Window(n-rtsSize-len(head.Bytes()), len(b)-n))
			}
			s.sendPacket(now, flagFirst|msgRTS<<msgKindShift, uint64(len(b)), b, rts)
			s.c.stats.RTSSent.Add(1)
			s.held, s.heldBody = head, body
		default:
			return
		}
	}
}

// nextFragment sends the next fragment of cur: its descriptor gets a window
// of the head buffer or of the lent body, never of both, and a reference of
// its own to that one, and the stream's references are released with the
// last fragment — never the last references, since that fragment's
// descriptor holds one. A put's head, its wire header, is thus a fragment of
// its own. Called with mu held.
//
//lint:requires mu
func (s *peerSender) nextFragment(now time.Time) {
	head := s.cur.Bytes()
	total := len(head) + s.curBody.Len()
	var flags uint8
	var aux uint64
	if s.curOff == 0 {
		flags, aux = flagFirst|msgApp<<msgKindShift, uint64(total)
	}
	room := s.c.mtu - pktHeaderSize
	owner, payload := s.cur, head[min(s.curOff, len(head)):min(len(head), s.curOff+room)]
	if s.curOff >= len(head) && s.curBody != nil {
		owner, payload = s.curBody, s.curBody.Window(s.curOff-len(head), room)
	}
	s.sendPacket(now, flags, aux, payload, owner.Retain())
	if s.curOff += len(payload); s.curOff == total {
		s.cur.Release()
		s.curBody.Release()
		s.cur, s.curBody = nil, nil
	}
}

// yield gives up the processor once; a variable so that a test can watch
// when the receive path yields (grantReceived).
var yield = runtime.Gosched

// grantReceived is called by the receive path when a CTS arrives: the held
// message goes at once, as far as the window has room. A CTS nobody is
// waiting for — no message held, or its grant already given — is a protocol
// error: it is counted (StrayGrants) and otherwise ignored.
//
// Once the body's first fragments are on the fabric, the receive goroutine
// yields, after mu is dropped. On a fabric that delivers from a goroutine
// (simnet's link), the send woke that goroutine into this P's next slot,
// behind this goroutine: without the yield the peer lands nothing until this
// goroutine has finished its burst. With it, the peer
// starts placing fragments on this P at once, and the rest of the burst moves
// to another P, so the two ends of the transfer overlap (§5.1). A body is
// always longer than EagerMax, so the burst is long by construction; no other
// send path yields.
func (s *peerSender) grantReceived() {
	s.mu.Lock()
	if s.held == nil || s.granted {
		s.mu.Unlock()
		s.c.stats.StrayGrants.Add(1)
		return
	}
	s.granted = true
	s.pump(time.Now())
	released := !s.granted // pump took the held message and sent its first fragment
	s.mu.Unlock()
	if released {
		yield()
	}
}

// oweCTS is called when an RTS has been answered, by the receive path or by
// the engine's answer. The grant is a sequenced packet like any other: it
// goes now if the window has room, and otherwise waits on the stream, never
// on the delivery path (§5.1) — the acks that reopen a full window arrive on
// the very goroutine that delivered the RTS.
func (s *peerSender) oweCTS() {
	s.mu.Lock()
	s.owedCTS++
	s.pump(time.Now())
	s.mu.Unlock()
}

// desc is the window slot of packet seq. Called with mu held.
//
//lint:requires mu
func (s *peerSender) desc(seq uint64) *txDesc {
	return &s.inFlight[seq%uint64(len(s.inFlight))]
}

// transmit puts one in-flight packet on the fabric: its prebuilt header
// plus a window of the message buffer, which the fabric copies out or takes
// a reference to. Called with mu held — see the comment on mu.
//
//lint:requires mu
func (s *peerSender) transmit(d *txDesc) {
	_ = s.c.ep.SendPacket(s.dst, d.hdr[:], d.payload, d.owner) // loss is the retransmission timer's job
}

// sendPacket assigns the next sequence number, records the packet's
// descriptor for retransmission, and transmits it; the caller has found the
// window open. now stamps the transmission. owner is a reference to the
// buffer payload is a window of (nil when there is none); the descriptor
// takes it. Called with mu held.
//
//lint:requires mu
func (s *peerSender) sendPacket(now time.Time, flags uint8, aux uint64, payload []byte, owner *bufpool.Buf) {
	seq := s.nextSeq
	s.nextSeq++
	d := s.desc(seq)
	*d = txDesc{payload: payload, owner: owner, sent: now}
	putHeader(&d.hdr, pktData, flags, seq, aux)
	s.lastSend = now
	s.arm(now, now.Add(s.delay()))
	// Packet-level spans are keyed (src NID, pid 0, packet seq); pid 0
	// distinguishes them from the (initiator NID/PID, header seq) message
	// spans above the reliability layer.
	trace.Record(trace.StageWireTx, uint32(s.c.LocalNID()), 0, seq, uint64(pktHeaderSize+len(payload)))
	s.transmit(d)
}

// observeRTT folds one round-trip sample into the smoothed estimator and
// recomputes the timeout (Jacobson/Karels: RTO = SRTT + 4·RTTVAR, clamped
// to [RTOMin, RTOMax]). Called with mu held.
//
//lint:requires mu
func (s *peerSender) observeRTT(sample time.Duration) {
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	rto := s.srtt + 4*s.rttvar
	if rto < s.c.cfg.RTOMin {
		rto = s.c.cfg.RTOMin
	}
	if rto > s.c.cfg.RTOMax {
		rto = s.c.cfg.RTOMax
	}
	s.rto = rto
	s.c.stats.RTTSamples.Add(1)
	s.srttNs.Store(int64(s.srtt))
	s.rtoNs.Store(int64(rto))
}

// minWindow floors the multiplicative window decrease, in packets; a
// configured Window below it is its own floor.
const minWindow = 2

// onAck processes a cumulative acknowledgment; resent says whether the first
// packet it covers beyond the previous ack was a retransmission. Progress
// (cumAck > base) releases window space, samples the RTT from the newest
// acked never-retransmitted packet (Karn's rule), and grows the window
// additively after a full window of clean acks; what waited for the window
// goes out before onAck returns; the first progress after a timeout also
// judges it. A duplicate cumAck at base signals the receiver is discarding
// out-of-order packets past a hole; the third such dup-ack fires an
// immediate Go-Back-N resend (fast retransmit), once per outstanding window.
func (s *peerSender) onAck(cumAck uint64, resent bool) {
	s.mu.Lock()
	if cumAck > s.base {
		n := min(cumAck, s.nextSeq) - s.base
		now := time.Now()
		sample := time.Duration(-1)
		for end := s.base + n; s.base < end; s.base++ {
			d := s.desc(s.base)
			if d.hdr[1]&flagResent == 0 {
				sample = now.Sub(d.sent) // ascending, so the newest clean packet wins
			}
			d.retire(&s.acked)
		}
		s.lastSend = now
		s.dupAcks = 0
		s.backoff = 0 // the path is alive: the schedule collapses to one RTO
		if s.undoWnd > 0 && !resent {
			// An original transmission moved the ack on: it was on its way
			// before the resend, so the timeout was spurious, a stall and
			// not a loss (Eifel, RFC 3522). The window comes back, and no
			// duplicate ack the resend draws may fire a fast retransmit of
			// what the window sends before it is in (RFC 6582 §3.2).
			s.wnd = s.undoWnd
			s.wndNow.Store(int64(s.wnd))
			s.recover = s.base + uint64(s.wnd)
		}
		s.undoWnd = 0
		if sample >= 0 {
			s.observeRTT(sample)
		}
		if s.base < s.nextSeq {
			s.arm(now, now.Add(s.delay())) // earlier, when the RTO fell or the backoff reset
		}
		s.ackRun += int(n)
		if s.ackRun >= s.wnd && s.wnd < s.c.cfg.Window {
			s.wnd++
			s.ackRun = 0
			s.wndNow.Store(int64(s.wnd))
		}
		s.pump(now)
		s.mu.Unlock()
		for i, b := range s.acked {
			b.Release()
			s.acked[i] = nil
		}
		s.acked = s.acked[:0] // amortized: it stops growing at the window
		return
	}
	// Duplicate cumulative ack at the window base with data outstanding:
	// the receiver saw something past a hole. Count toward fast
	// retransmit, but only once per window (NewReno-style recover guard —
	// dup-acks generated by our own resend burst must not re-fire it).
	if cumAck == s.base && s.nextSeq > s.base && s.base >= s.recover {
		s.dupAcks++
		if s.dupAcks >= dupAckThreshold {
			s.recover = s.nextSeq
			from, to := s.markRetx(3, 4)
			s.mu.Unlock()
			s.c.stats.FastRetransmits.Add(1)
			s.resend(from, to, 0)
			return
		}
	}
	s.mu.Unlock()
}

// markRetx readies a Go-Back-N resend of the whole outstanding window, by
// either kind of retransmission: it flags the window retransmitted (Karn),
// restarts the stall clock and the dup-ack count, and applies multiplicative
// decrease num/den to the window, flooring at minWindow, which resets the
// growth run. It returns the window's bounds. Called with mu held.
//
//lint:requires mu
func (s *peerSender) markRetx(num, den int) (from, to uint64) {
	for seq := s.base; seq < s.nextSeq; seq++ {
		s.desc(seq).hdr[1] |= flagResent
	}
	s.lastSend = time.Now()
	s.dupAcks = 0
	w := max(s.wnd*num/den, min(minWindow, s.c.cfg.Window))
	if w != s.wnd {
		s.wnd = w
		s.wndNow.Store(int64(w))
	}
	s.ackRun = 0
	return s.base, s.nextSeq
}

// resend retransmits packets [from, to) — Go-Back-N: the window as it stood
// when the loss was noticed. mu is taken per packet, so acks are never
// held up behind a whole window of packets, and a packet an ack retired in
// the meantime is skipped: its slot may already describe something else.
func (s *peerSender) resend(from, to uint64, delay time.Duration) {
	traced := trace.Enabled()
	for seq := from; seq < to; seq++ {
		s.mu.Lock()
		if seq >= s.base && !s.closed {
			s.c.stats.Retransmits.Add(1)
			if traced {
				trace.Record(trace.StageRetransmit, uint32(s.c.LocalNID()), 0, seq, uint64(delay))
			}
			s.transmit(s.desc(seq))
		}
		s.mu.Unlock()
	}
}

// delay is how long the window may stall before it times out: the RTO —
// the adaptive per-peer timeout once RTT samples exist, cfg.RTO before any —
// doubled by each timeout since the last ack progress, up to RTOMax. Called
// with mu held.
//
//lint:requires mu
func (s *peerSender) delay() time.Duration {
	return min(s.rto<<s.backoff, s.c.cfg.RTOMax)
}

// arm sets the retransmission timer for deadline, unless it is already armed
// for an earlier one: a steady stream, whose deadline only moves later, pays
// no Reset per packet. Called with mu held.
//
//lint:requires mu
func (s *peerSender) arm(now, deadline time.Time) {
	if s.armed.IsZero() || deadline.Before(s.armed) {
		s.armed = deadline
		s.timer.Reset(deadline.Sub(now))
	}
}

// expire is the retransmission timer's callback: Go-Back-N timeout recovery
// with capped exponential backoff. The window times out once nothing has
// been sent or acked for delay; until then the timer re-arms for that
// moment, and with nothing in flight it lapses. Each timeout without window
// progress doubles the delay until RTOMax, and the next one cannot come
// before that delay. Backoff bounds the bandwidth a dead or partitioned peer
// can soak up. A timeout retransmission also halves the tx window
// (multiplicative decrease): timer expiry is the strongest congestion signal
// the sender gets.
func (s *peerSender) expire() {
	s.mu.Lock()
	s.armed = time.Time{}
	if s.closed || s.base == s.nextSeq {
		s.mu.Unlock()
		return
	}
	now, delay := time.Now(), s.delay()
	if due := s.lastSend.Add(delay); now.Before(due) {
		s.arm(now, due)
		s.mu.Unlock()
		return
	}
	s.undoWnd = max(s.undoWnd, s.wnd) // the window before the first of these timeouts: without progress it only shrinks
	from, to := s.markRetx(1, 2)
	if delay < s.c.cfg.RTOMax {
		s.backoff++
	}
	// The wait is spread over [d, 1.25d), so peers that shared one loss event
	// do not resynchronize their resends; one-sided, it keeps d a floor.
	next := s.delay()
	s.arm(now, s.lastSend.Add(next+time.Duration(s.rng.Int64N(int64(next)/4+1))))
	s.mu.Unlock()
	s.c.stats.Backoff.Observe(int64(delay))
	s.resend(from, to, delay)
}
