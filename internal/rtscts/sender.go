package rtscts

import (
	"encoding/binary"
	"math/rand"
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
// payload lies in the message buffer, not a copy of it. sent timestamps the
// most recent transmission; retx marks packets that have ever been
// retransmitted, which Karn's rule excludes from RTT sampling (an ack for
// a retransmitted packet is ambiguous — it may answer either transmission).
type txDesc struct {
	hdr     [pktHeaderSize]byte // wire header, built once at first transmission
	payload []byte              // a window of owner; empty for header-only packets
	owner   *bufpool.Buf        // the descriptor's own reference to the message buffer; nil for a message without one
	sent    time.Time
	retx    bool
}

// retire gives up the descriptor's reference to its message once the packet
// is acknowledged or abandoned.
func (d *txDesc) retire() {
	d.payload = nil
	d.owner.Release()
	d.owner = nil
}

// peerSender owns the reliable stream toward one destination: the message
// queue, the Go-Back-N window, and the retransmission timer. The window is
// self-tuning: the retransmission timeout tracks the measured RTT
// (Jacobson/Karels), three duplicate acks trigger an immediate Go-Back-N
// resend without waiting out the timer, and the window width adapts —
// multiplicative decrease on any retransmission, additive increase on
// clean ack runs — between minWindow and cfg.Window.
type peerSender struct {
	c   *Conn
	dst types.NID

	// Work for the run goroutine: queued messages (unbounded, so Send never
	// blocks — local completion = accepted here), grants owed to the peer,
	// and the state of our own rendezvous. run is the only goroutine that
	// puts sequenced packets on the stream, which is what keeps the
	// fragments of one message contiguous (the receiver reassembles one
	// message at a time).
	qmu      sync.Mutex
	qcond    *sync.Cond
	queue    bufpool.Queue //lint:guardedby qmu
	owedCTS  int           //lint:guardedby qmu  RTS announcements from the peer not yet granted
	awaiting bool          //lint:guardedby qmu  our RTS is out, its CTS not yet seen
	granted  bool          //lint:guardedby qmu  the CTS arrived; the held message may go
	closed   bool          //lint:guardedby qmu

	// Window state, guarded by wmu. Packets are transmitted WITH wmu held:
	// a descriptor is shown to the fabric and retired only under it, so the
	// ack that retires a message cannot drop the reference a
	// (re)transmission is handing the fabric at that moment. SendPacket
	// never blocks and never calls back, so the fabric's locks simply nest
	// inside.
	//
	//lint:lockrank peerSender.wmu < Network.mu
	//lint:lockrank peerSender.wmu < link.mu
	//lint:lockrank peerSender.wmu < node.qmu
	wmu      sync.Mutex
	wcond    *sync.Cond
	nextSeq  uint64    //lint:guardedby wmu
	base     uint64    //lint:guardedby wmu  lowest unacked sequence
	inFlight []txDesc  //lint:guardedby wmu  ring of cfg.Window slots; packet seq lives at seq % len
	lastSend time.Time //lint:guardedby wmu

	// Adaptive state, guarded by wmu.
	srtt    time.Duration //lint:guardedby wmu  smoothed RTT; 0 = no samples yet
	rttvar  time.Duration //lint:guardedby wmu  RTT mean deviation
	rto     time.Duration //lint:guardedby wmu  adaptive timeout, [RTOMin, RTOMax]
	wnd     int           //lint:guardedby wmu  current window width
	ackRun  int           //lint:guardedby wmu  acked pkts since last growth/retransmit
	dupAcks int           //lint:guardedby wmu  consecutive dup cumacks at base
	recover uint64        //lint:guardedby wmu  fast-retx disabled until base reaches this

	// Lock-free mirrors of srtt/rto/wnd for metrics exposition; written
	// under wmu, read anywhere.
	srttNs atomic.Int64
	rtoNs  atomic.Int64
	wndNow atomic.Int64

	done chan struct{}
}

func newPeerSender(c *Conn, dst types.NID) *peerSender {
	s := &peerSender{c: c, dst: dst, inFlight: make([]txDesc, c.cfg.Window), done: make(chan struct{})}
	s.qcond = sync.NewCond(&s.qmu)
	s.wcond = sync.NewCond(&s.wmu)
	s.rto = c.cfg.RTO
	s.wnd = c.cfg.Window
	s.rtoNs.Store(int64(s.rto))
	s.wndNow.Store(int64(s.wnd))
	go s.run()
	go s.retransmitLoop()
	return s
}

// enqueue accepts one message for the stream, taking the buffer.
//
//lint:consumes buf
func (s *peerSender) enqueue(buf *bufpool.Buf) error {
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		buf.Release()
		return types.ErrClosed
	}
	s.queue.Push(buf)
	s.qmu.Unlock()
	s.qcond.Signal()
	return nil
}

// shutdown stops the sender and returns every buffer it still holds to the
// pool: the queued messages here, the in-flight ones under wmu — after done
// is closed, so nothing is recorded or transmitted behind the sweep.
func (s *peerSender) shutdown() {
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		return
	}
	s.closed = true
	for s.queue.Len() > 0 {
		s.queue.Pop().Release()
	}
	s.qmu.Unlock()
	s.qcond.Broadcast()
	close(s.done)
	s.wmu.Lock()
	for ; s.base < s.nextSeq; s.base++ {
		s.desc(s.base).retire()
	}
	s.wmu.Unlock()
	s.wcond.Broadcast()
}

// run drains the message queue in FIFO order, performing rendezvous for
// messages beyond the eager threshold, and issues the grants this node owes
// the peer. FIFO draining is what gives Portals its ordered-delivery
// guarantee across eager and rendezvous messages. While a rendezvous
// message waits for its grant no later message overtakes it, but grants
// still go out — two nodes in simultaneous rendezvous would otherwise
// deadlock.
func (s *peerSender) run() {
	var held *bufpool.Buf // announced by RTS, waiting for its CTS
	for {
		s.qmu.Lock()
		for !s.closed && s.owedCTS == 0 && !s.granted && (held != nil || s.queue.Len() == 0) {
			s.qcond.Wait()
		}
		switch {
		case s.closed:
			s.qmu.Unlock()
			if held != nil {
				held.Release()
			}
			return
		case s.owedCTS > 0:
			s.owedCTS--
			s.qmu.Unlock()
			s.sendMessage(msgCTS, nil)
			s.c.stats.CTSSent.Add(1)
			continue
		}
		if held == nil {
			if msg := s.queue.Pop(); len(msg.Bytes()) > s.c.cfg.EagerMax {
				// Rendezvous: announce, then hold the message for the grant.
				s.awaiting = true
				s.qmu.Unlock()
				head := msg.Bytes()[:min(len(msg.Bytes()), transport.HeadSize)]
				rts := bufpool.Get(rtsSize + len(head))
				binary.BigEndian.PutUint64(rts.Bytes(), uint64(len(msg.Bytes())))
				copy(rts.Bytes()[rtsSize:], head)
				s.sendMessage(msgRTS, rts)
				s.c.stats.RTSSent.Add(1)
				held = msg
			} else {
				s.qmu.Unlock()
				s.sendMessage(msgApp, msg)
			}
			continue
		}
		// The grant arrived.
		s.granted = false
		s.qmu.Unlock()
		s.sendMessage(msgApp, held)
		held = nil
	}
}

// grantReceived is called by the receive path when a CTS arrives. A CTS
// nobody is waiting for is a protocol error and is ignored.
func (s *peerSender) grantReceived() {
	s.qmu.Lock()
	if s.awaiting {
		s.awaiting, s.granted = false, true
	}
	s.qmu.Unlock()
	s.qcond.Signal()
}

// oweCTS is called by the receive path when an RTS arrives. The grant is
// issued by the run goroutine, never inline: emitting it blocks while the
// Go-Back-N window toward the peer is full, and the acks that would open it
// arrive on the very goroutine that delivered the RTS. Application bypass
// (§5.1) requires the delivery path itself never to wait on protocol
// backpressure.
func (s *peerSender) oweCTS() {
	s.qmu.Lock()
	s.owedCTS++
	s.qmu.Unlock()
	s.qcond.Signal()
}

// sendMessage fragments one message onto the reliable stream, taking buf
// (nil for a message with no payload): every fragment's descriptor gets a
// window of it and a reference of its own, and the reference that came in is
// released here, whether the sender closed first or not.
//
//lint:consumes buf
func (s *peerSender) sendMessage(kind uint8, buf *bufpool.Buf) {
	frag := s.c.mtu - pktHeaderSize
	var rest []byte
	if buf != nil {
		rest = buf.Bytes()
	}
	flags, aux := flagFirst|kind<<msgKindShift, uint64(len(rest))
	// One clock read stamps every fragment that goes out without waiting
	// for the window: such a run takes microseconds, the estimator it
	// feeds is floored at RTOMin, and what skew there is errs toward a
	// longer RTT. sendReliable reads the clock again after any wait.
	now := time.Now()
	for {
		n := min(len(rest), frag)
		if !s.sendReliable(&now, flags, aux, rest[:n], buf.Retain()) {
			break
		}
		if rest = rest[n:]; len(rest) == 0 {
			break
		}
		flags, aux = 0, 0
	}
	buf.Release()
}

// desc is the window slot of packet seq. Called with wmu held.
//
//lint:requires wmu
func (s *peerSender) desc(seq uint64) *txDesc {
	return &s.inFlight[seq%uint64(len(s.inFlight))]
}

// transmit puts one in-flight packet on the fabric: its prebuilt header
// plus a window of the message buffer, which the fabric copies out or takes
// a reference to. Called with wmu held — see the window-state comment.
//
//lint:requires wmu
func (s *peerSender) transmit(d *txDesc) {
	_ = s.c.ep.SendPacket(s.dst, d.hdr[:], d.payload, d.owner) // loss is the retransmit loop's job
}

// sendReliable assigns the next sequence number, records the packet's
// descriptor for retransmission, and transmits it, blocking while the
// window is full. now is the caller's reading of the clock, which stamps
// the transmission; it is refreshed here if the window made the packet
// wait. owner is a reference to the buffer payload is a window of (nil when
// there is none); the descriptor takes it. Once the sender is closed
// sendReliable records nothing, releases owner, and reports false.
//
//lint:consumes owner
func (s *peerSender) sendReliable(now *time.Time, flags uint8, aux uint64, payload []byte, owner *bufpool.Buf) bool {
	s.wmu.Lock()
	if s.nextSeq-s.base >= uint64(s.wnd) {
		for s.nextSeq-s.base >= uint64(s.wnd) && !s.isClosedFast() {
			s.wcond.Wait()
		}
		*now = time.Now()
	}
	if s.isClosedFast() {
		s.wmu.Unlock()
		owner.Release()
		return false
	}
	seq := s.nextSeq
	s.nextSeq++
	d := s.desc(seq)
	*d = txDesc{payload: payload, owner: owner, sent: *now}
	putHeader(&d.hdr, pktData, flags, seq, aux)
	s.lastSend = *now
	// Packet-level spans are keyed (src NID, pid 0, packet seq); pid 0
	// distinguishes them from the (initiator NID/PID, header seq) message
	// spans above the reliability layer.
	trace.Record(trace.StageWireTx, uint32(s.c.LocalNID()), 0, seq, uint64(pktHeaderSize+len(payload)))
	s.transmit(d)
	s.wmu.Unlock()
	return true
}

// isClosedFast avoids the queue lock inside window waits.
func (s *peerSender) isClosedFast() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// observeRTT folds one round-trip sample into the smoothed estimator and
// recomputes the timeout (Jacobson/Karels: RTO = SRTT + 4·RTTVAR, clamped
// to [RTOMin, RTOMax]). Called with wmu held.
//
//lint:requires wmu
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

// shrinkWindow applies multiplicative decrease num/den, flooring at
// minWindow, and resets the growth run. Called with wmu held.
//
//lint:requires wmu
func (s *peerSender) shrinkWindow(num, den int) {
	w := max(s.wnd*num/den, min(minWindow, s.c.cfg.Window))
	if w != s.wnd {
		s.wnd = w
		s.wndNow.Store(int64(w))
	}
	s.ackRun = 0
}

// onAck processes a cumulative acknowledgment. Progress (cumAck > base)
// releases window space, samples the RTT from the newest acked
// never-retransmitted packet (Karn's rule), and grows the window additively
// after a full window of clean acks. A duplicate cumAck at base signals the
// receiver is discarding out-of-order packets past a hole; the third such
// dup-ack fires an immediate Go-Back-N resend (fast retransmit), once per
// outstanding window.
func (s *peerSender) onAck(cumAck uint64) {
	s.wmu.Lock()
	if cumAck > s.base {
		n := min(cumAck, s.nextSeq) - s.base
		now := time.Now()
		sample := time.Duration(-1)
		for end := s.base + n; s.base < end; s.base++ {
			d := s.desc(s.base)
			if !d.retx {
				sample = now.Sub(d.sent) // ascending, so the newest clean packet wins
			}
			d.retire()
		}
		s.lastSend = now
		s.dupAcks = 0
		if sample >= 0 {
			s.observeRTT(sample)
		}
		s.ackRun += int(n)
		if s.ackRun >= s.wnd && s.wnd < s.c.cfg.Window {
			s.wnd++
			s.ackRun = 0
			s.wndNow.Store(int64(s.wnd))
		}
		s.wmu.Unlock()
		s.wcond.Broadcast()
		return
	}
	// Duplicate cumulative ack at the window base with data outstanding:
	// the receiver saw something past a hole. Count toward fast
	// retransmit, but only once per window (NewReno-style recover guard —
	// dup-acks generated by our own resend burst must not re-fire it).
	if cumAck == s.base && s.nextSeq > s.base && s.base >= s.recover {
		s.dupAcks++
		if s.dupAcks >= dupAckThreshold {
			s.dupAcks = 0
			s.recover = s.nextSeq
			from, to := s.markRetx()
			s.shrinkWindow(3, 4)
			s.wmu.Unlock()
			s.c.stats.FastRetransmits.Add(1)
			s.resend(from, to, 0)
			return
		}
	}
	s.wmu.Unlock()
}

// markRetx flags the whole outstanding window as retransmitted (Karn) and
// restarts the stall clock, returning the window's bounds. Called with wmu
// held.
//
//lint:requires wmu
func (s *peerSender) markRetx() (from, to uint64) {
	for seq := s.base; seq < s.nextSeq; seq++ {
		s.desc(seq).retx = true
	}
	s.lastSend = time.Now()
	return s.base, s.nextSeq
}

// resend retransmits packets [from, to) — Go-Back-N: the window as it stood
// when the loss was noticed. wmu is taken per packet, so acks are never
// held up behind a whole window of packets, and a packet an ack retired in
// the meantime is skipped: its slot may already describe something else.
func (s *peerSender) resend(from, to uint64, delay time.Duration) {
	traced := trace.Enabled()
	for seq := from; seq < to; seq++ {
		s.wmu.Lock()
		if seq >= s.base && !s.isClosedFast() {
			s.c.stats.Retransmits.Add(1)
			if traced {
				trace.Record(trace.StageRetransmit, uint32(s.c.LocalNID()), 0, seq, uint64(delay))
			}
			s.transmit(s.desc(seq))
		}
		s.wmu.Unlock()
	}
}

// retransmitLoop implements Go-Back-N timeout recovery with capped
// exponential backoff: the first resend fires one RTO after the window
// stalls — where RTO is the adaptive per-peer timeout once RTT samples
// exist, or cfg.RTO before any — and each consecutive resend without
// window progress doubles the delay — jittered upward by up to 25% — until
// RTOMax. Any cumulative-ack progress resets the schedule to the current
// RTO. Backoff bounds the bandwidth a dead or partitioned peer can soak
// up, and the jitter keeps peers that shared one loss event from
// resynchronizing their retransmission bursts. A timeout retransmission
// also halves the tx window (multiplicative decrease): timer expiry is the
// strongest congestion signal the sender gets.
func (s *peerSender) retransmitLoop() {
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(s.dst)<<17))
	s.wmu.Lock()
	delay := s.rto // current stall threshold / inter-attempt gap
	s.wmu.Unlock()
	lastBase := uint64(0) // window base at the previous wakeup
	timer := time.NewTimer(jitter(rng, delay/2))
	defer timer.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-timer.C:
		}
		s.wmu.Lock()
		rto := s.rto
		if s.base != lastBase {
			// The peer acked something since we last looked: the path is
			// alive, so collapse the backoff schedule back to one RTO.
			lastBase = s.base
			delay = rto
		}
		stuck := s.nextSeq > s.base && time.Since(s.lastSend) >= delay
		var from, to uint64
		if stuck {
			from, to = s.markRetx()
			s.dupAcks = 0
			s.shrinkWindow(1, 2)
		}
		s.wmu.Unlock()

		// Idle-granularity wakeup tracks the adaptive timeout.
		wait := jitter(rng, rto/2)
		if stuck {
			s.c.stats.Backoff.Observe(int64(delay))
			s.resend(from, to, delay)
			delay *= 2
			if delay > s.c.cfg.RTOMax {
				delay = s.c.cfg.RTOMax
			}
			// Sleep the whole (jittered) backoff before even rechecking:
			// a resend burst can't fire earlier than the schedule allows.
			wait = jitter(rng, delay)
		}
		timer.Reset(wait)
	}
}

// jitter spreads d over [d, 1.25d) so independent senders never lock step.
// One-sided jitter keeps d a floor: backoff guarantees are never weakened.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d + time.Duration(rng.Int63n(int64(d)/4+1))
}
