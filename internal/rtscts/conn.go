package rtscts

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs/metrics"
	"repro/internal/rcu"
	"repro/internal/transport"
	"repro/internal/types"
)

// Config tunes the reliability layer.
type Config struct {
	// Window is the Go-Back-N window ceiling in packets per destination.
	// The effective window starts here and adapts downward under loss
	// (multiplicative decrease on retransmit) and back up on clean ack
	// runs (additive increase), never exceeding Window.
	Window int
	// RTO seeds the retransmission timeout. Until the first RTT sample it
	// is the FIRST retransmission delay; subsequent attempts back off
	// exponentially (doubling, with jitter) up to RTOMax, so a dead peer
	// costs O(log) retransmissions instead of a fixed-rate resend storm.
	// Once acks carry RTT samples, the timeout adapts per destination
	// (SRTT + 4·RTTVAR, Jacobson/Karels) within [RTOMin, RTOMax].
	RTO time.Duration
	// RTOMin floors the adaptive timeout so near-zero-latency fabrics
	// don't collapse it into scheduler-jitter territory. Zero selects
	// 1 ms, clamped to RTO.
	RTOMin time.Duration
	// RTOMax caps the exponential backoff between retransmission attempts
	// and the adaptive timeout. Zero selects 16×RTO.
	RTOMax time.Duration
	// EagerMax is the largest message sent eagerly; longer messages
	// perform RTS/CTS rendezvous first. Zero selects the default (32 KB,
	// mirroring Cplant's long-message threshold order of magnitude). Like
	// the MTU, every node of a fabric must agree on it: a receiver swallows
	// an unannounced message above its own limit as a protocol violation.
	EagerMax int
}

// DefaultConfig matches the Myrinet-class fabric presets.
func DefaultConfig() Config {
	return Config{Window: 64, RTO: 10 * time.Millisecond, EagerMax: 32 * 1024}
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.RTO <= 0 {
		c.RTO = 10 * time.Millisecond
	}
	if c.RTOMin <= 0 {
		c.RTOMin = time.Millisecond
	}
	if c.RTOMin > c.RTO {
		c.RTOMin = c.RTO
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 16 * c.RTO
	}
	if c.RTOMax < c.RTO {
		c.RTOMax = c.RTO
	}
	if c.EagerMax <= 0 {
		c.EagerMax = 32 * 1024
	}
	return c
}

// Stats counts protocol events, for tests and the bandwidth experiments.
// Backoff is a lock-free histogram of the per-attempt retransmission delay
// (nanoseconds) — every field here is sync/atomic or composed of them, so
// bumping stats never serializes delivery goroutines.
type Stats struct {
	Retransmits     atomic.Int64
	FastRetransmits atomic.Int64
	RTTSamples      atomic.Int64
	DupsDiscarded   atomic.Int64
	OutOfOrder      atomic.Int64
	RTSSent         atomic.Int64
	CTSSent         atomic.Int64
	AcksSent        atomic.Int64
	MsgsDelivered   atomic.Int64
	// BadLength counts in-sequence fragments discarded for impossible
	// framing: a length above MaxMessage, a payload that overruns its
	// message, a malformed RTS/CTS, an unknown message kind, or a
	// continuation fragment with no message open.
	BadLength atomic.Int64
	// Placed counts announced messages whose body was written through to the
	// handler's sink instead of a delivery buffer, PlacedBytes the bytes that
	// went that way (the head excepted: it travels with the announcement),
	// and AnnounceDiscarded the announcements the handler answered Discard.
	Placed            atomic.Int64
	PlacedBytes       atomic.Int64
	AnnounceDiscarded atomic.Int64
	// StrayGrants counts CTS packets that arrived with no rendezvous message
	// waiting for them: none held, or its grant already given.
	StrayGrants atomic.Int64
	Backoff     metrics.Histogram
}

// Conn is a node's reliable attachment: it implements transport.Endpoint
// over an unreliable PacketEndpoint (simnet or real UDP sockets).
type Conn struct {
	cfg   Config
	ep    PacketEndpoint
	mtu   int
	stats Stats

	// ready gates inbound dispatch until Attach has finished wiring
	// the Conn (in particular ep): a real packet network may start its read
	// loop inside AttachPacket, before ep is assigned, and the goroutine
	// spawn alone gives that loop no happens-before edge to the later
	// write. attached is the post-close fast path so the steady state pays
	// one atomic load per packet instead of a channel receive.
	ready    chan struct{}
	attached atomic.Bool

	// announce: the handler asked for announcements (Announce), so an RTS is
	// put to it and granted by its answer instead of at once.
	announce atomic.Bool

	// Per-peer state is found without a lock on the packet paths; mu
	// serializes the first contact that creates it, and Close.
	mu        sync.Mutex
	senders   rcu.Map[types.NID, *peerSender]
	receivers rcu.Map[types.NID, *peerReceiver]
	closed    bool //lint:guardedby mu

	// The receivers owed an ack by the flush that ends the current burst.
	// A receiver is listed by the feeder that marked it, after that feeder
	// has dropped the receiver's own lock; flush holds ackMu across the
	// acks it sends.
	//
	//lint:lockrank Conn.ackMu < peerReceiver.mu
	ackMu  sync.Mutex
	ackDue []*peerReceiver //lint:guardedby ackMu

	// Completed messages wait here until the packet network signals the
	// end of a dispatch burst; the hand-off keeps batches serial on fabrics
	// that feed a Conn from one goroutine per source.
	out transport.Handoff
}

// Attach registers nid on an unreliable packet network with reliability on
// top: bh receives complete, exactly-once, in-order messages. Those
// completed by one dispatch burst of the packet network
// (PacketNetwork.AttachPacket's flush) arrive as one batch, with buffer
// ownership per transport.BatchHandler.
func Attach(pn PacketNetwork, nid types.NID, cfg Config, bh transport.BatchHandler) (*Conn, error) {
	if bh == nil {
		return nil, fmt.Errorf("rtscts: nil handler")
	}
	c := &Conn{
		cfg:   cfg.withDefaults(),
		mtu:   pn.MTU(),
		ready: make(chan struct{}),
	}
	c.out.Init(bh)
	// An RTS must fit one packet: control messages are never reassembled.
	if c.mtu < pktHeaderSize+rtsSize+transport.HeadSize {
		return nil, fmt.Errorf("rtscts: fabric MTU %d below the %d-byte minimum (header plus RTS)", c.mtu, pktHeaderSize+rtsSize+transport.HeadSize)
	}
	ep, err := pn.AttachPacket(nid, c.gatedPacket, c.flush)
	if err != nil {
		return nil, err
	}
	c.ep = ep
	c.attached.Store(true)
	close(c.ready)
	return c, nil
}

// gatedPacket is the handler registered with the packet network. It holds
// early packets at the gate until Attach has published ep, then
// degenerates to a single atomic load in front of onPacket.
func (c *Conn) gatedPacket(src types.NID, hdr, payload []byte) {
	if !c.attached.Load() {
		<-c.ready
	}
	c.onPacket(src, hdr, payload)
}

// flush ends one dispatch burst of the packet network: every source that
// had packets accepted in sequence gets one cumulative ack for the lot,
// then the messages the burst completed go up as one batch. The acks go
// first, so the peers' windows reopen while the handler runs.
func (c *Conn) flush() {
	c.ackMu.Lock()
	for i, r := range c.ackDue {
		r.mu.Lock()
		if r.ackDue {
			r.sendAck(c)
		}
		r.mu.Unlock()
		c.ackDue[i] = nil
	}
	c.ackDue = c.ackDue[:0]
	c.ackMu.Unlock()
	c.out.Flush()
}

// Stats exposes the protocol counters.
func (c *Conn) Stats() *Stats { return &c.stats }

// Announce makes the Conn a transport.Announcer: from now on a rendezvous
// announcement goes up to the handler, and the peer gets its CTS when the
// handler has answered.
func (c *Conn) Announce() { c.announce.Store(true) }

// PeerState is a snapshot of the adaptive reliability state toward one
// destination, for tests and diagnostics.
type PeerState struct {
	SRTT     time.Duration // smoothed RTT; 0 until the first sample
	RTTVar   time.Duration // RTT mean deviation
	RTO      time.Duration // current adaptive retransmission timeout
	Window   int           // current tx window (packets)
	InFlight int           // unacked packets outstanding
	Base     uint64        // lowest unacked sequence
	NextSeq  uint64        // next sequence to assign
}

// Peer reports the window/RTT state toward dst; ok is false if no traffic
// has been sent there yet.
func (c *Conn) Peer(dst types.NID) (st PeerState, ok bool) {
	s, ok := c.senders.Get(dst)
	if !ok {
		return PeerState{}, false
	}
	s.mu.Lock()
	st = PeerState{
		SRTT:     s.srtt,
		RTTVar:   s.rttvar,
		RTO:      s.rto,
		Window:   s.wnd,
		InFlight: int(s.nextSeq - s.base),
		Base:     s.base,
		NextSeq:  s.nextSeq,
	}
	s.mu.Unlock()
	return st, true
}

// RegisterMetrics exposes the reliability-layer counters, the
// retransmission-backoff histogram, and the adaptive-window gauges.
// Counter series are views over the existing atomics and the gauges read
// per-sender atomic mirrors at exposition time only; nothing on the packet
// paths changes.
func (c *Conn) RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	st := &c.stats
	r.CounterFunc("portals_rtscts_retransmits_total", "Go-Back-N packets retransmitted", ls, st.Retransmits.Load)
	r.CounterFunc("portals_rtscts_fast_retransmits_total", "fast retransmit events fired on dup-ack threshold", ls, st.FastRetransmits.Load)
	r.CounterFunc("portals_rtscts_rtt_samples_total", "RTT samples accepted (Karn's rule)", ls, st.RTTSamples.Load)
	r.CounterFunc("portals_rtscts_dups_total", "duplicate packets discarded", ls, st.DupsDiscarded.Load)
	r.CounterFunc("portals_rtscts_out_of_order_total", "out-of-window packets discarded", ls, st.OutOfOrder.Load)
	r.CounterFunc("portals_rtscts_rts_total", "rendezvous RTS announcements sent", ls, st.RTSSent.Load)
	r.CounterFunc("portals_rtscts_cts_total", "rendezvous CTS grants sent", ls, st.CTSSent.Load)
	r.CounterFunc("portals_rtscts_acks_total", "cumulative acks sent", ls, st.AcksSent.Load)
	r.CounterFunc("portals_rtscts_delivered_total", "complete messages delivered in order", ls, st.MsgsDelivered.Load)
	r.CounterFunc("portals_rtscts_bad_length_total", "in-sequence fragments discarded for impossible length or framing", ls, st.BadLength.Load)
	r.CounterFunc("portals_rtscts_placed_total", "announced messages written through to the handler's sink", ls, st.Placed.Load)
	r.CounterFunc("portals_rtscts_placed_bytes_total", "message bytes written through to a sink instead of a delivery buffer", ls, st.PlacedBytes.Load)
	r.CounterFunc("portals_rtscts_announce_discarded_total", "announced messages the handler refused; swallowed on arrival", ls, st.AnnounceDiscarded.Load)
	r.CounterFunc("portals_rtscts_stray_cts_total", "CTS grants that arrived with no rendezvous message waiting; dropped", ls, st.StrayGrants.Load)
	r.RegisterHistogram("portals_rtscts_backoff_ns",
		"retransmission backoff delay per attempt (capped exponential, jittered)", ls, &st.Backoff)
	// Window gauges aggregate across destinations: the slowest peer's SRTT
	// and RTO (max) and the most-constricted window (min) are the numbers
	// an operator watches. Exposition iterates the sender map and reads
	// lock-free atomic mirrors — exposition is off the packet paths.
	r.GaugeFunc("portals_rtscts_srtt_ns", "largest per-peer smoothed RTT", ls, func() int64 {
		var v int64
		c.eachSender(func(s *peerSender) {
			if n := s.srttNs.Load(); n > v {
				v = n
			}
		})
		return v
	})
	r.GaugeFunc("portals_rtscts_rto_ns", "largest per-peer adaptive retransmission timeout", ls, func() int64 {
		var v int64
		c.eachSender(func(s *peerSender) {
			if n := s.rtoNs.Load(); n > v {
				v = n
			}
		})
		return v
	})
	r.GaugeFunc("portals_rtscts_window_pkts", "most-constricted per-peer tx window", ls, func() int64 {
		var v int64
		c.eachSender(func(s *peerSender) {
			n := s.wndNow.Load()
			if v == 0 || n < v {
				v = n
			}
		})
		return v
	})
}

func (c *Conn) eachSender(fn func(*peerSender)) {
	c.senders.Range(func(_ types.NID, s *peerSender) bool {
		fn(s)
		return true
	})
}

// LocalNID reports the attached node id.
func (c *Conn) LocalNID() types.NID { return c.ep.LocalNID() }

// Send queues msg for reliable in-order delivery to dst. It returns once
// the message is accepted by the per-peer sender (local completion), having
// put on the fabric as much of it as the window toward dst has room for;
// the rest goes out as acks reopen the window, and the reliability
// machinery retransmits as needed. Send never blocks on the network, so it
// is safe to call from delivery handlers (the engine emitting acks/replies).
// msg is copied, once, into a pooled buffer; the caller may reuse it as soon
// as Send returns.
func (c *Conn) Send(dst types.NID, msg []byte) error {
	return transport.SendCopy(c, dst, msg)
}

// SendBuf is Send without the copy: the per-peer sender fragments head and
// body in place and releases each when its last fragment is acknowledged —
// or here, on every path that fails. An eager message is joined into one
// buffer here, and its body released once the message is queued: on the
// caller's goroutine, before SendBuf returns.
func (c *Conn) SendBuf(dst types.NID, head, body *bufpool.Buf) error {
	n := len(head.Bytes()) + body.Len()
	if n > MaxMessage {
		head.Release()
		body.Release()
		return fmt.Errorf("rtscts: message of %d bytes exceeds the %d-byte limit", n, MaxMessage)
	}
	s, err := c.sender(dst)
	if err != nil {
		head.Release()
		body.Release()
		return err
	}
	if body == nil || n > c.cfg.EagerMax {
		return s.enqueue(head, body)
	}
	err = s.enqueue(bufpool.Join(head, body), nil)
	body.Release()
	return err
}

// deliver queues one completed message for the flush that ends the burst.
func (c *Conn) deliver(d transport.Delivery) {
	c.stats.MsgsDelivered.Add(1)
	c.out.Add(d)
}

// Close detaches from the fabric and stops all per-peer machinery. It
// returns after the handler's last call (transport.Handoff.Close).
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true // no peer state is created from here on
	c.mu.Unlock()
	c.eachSender((*peerSender).shutdown)
	err := c.ep.Close()
	// What was received but never handed up goes back to the pool:
	// half-assembled messages, and completions no flush will follow. An
	// open placement leaves as an aborted completion, which the hand-off,
	// closing, aborts.
	c.receivers.Range(func(_ types.NID, r *peerReceiver) bool {
		r.shutdown()
		return true
	})
	c.out.Close()
	return err
}

// sender finds the reliable stream toward dst, building it on first contact.
func (c *Conn) sender(dst types.NID) (*peerSender, error) {
	if s, ok := c.senders.Get(dst); ok {
		return s, nil // a closed Conn's senders refuse for themselves
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, types.ErrClosed
	}
	s, ok := c.senders.Get(dst)
	if !ok {
		s = newPeerSender(c, dst)
		c.senders.Set(dst, s)
	}
	return s, nil
}

// receiver finds the reception state for src, building it on first
// contact; nil once the Conn is closed.
func (c *Conn) receiver(src types.NID) *peerReceiver {
	if r, ok := c.receivers.Get(src); ok {
		return r // a closed Conn's receivers refuse for themselves
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	r, ok := c.receivers.Get(src)
	if !ok {
		r = &peerReceiver{c: c, src: src}
		c.receivers.Set(src, r)
	}
	return r
}

// onPacket is the fabric-side entry point; it runs on the packet network's
// delivery goroutines.
func (c *Conn) onPacket(src types.NID, hdr, payload []byte) {
	kind, flags, seq, aux, frag, err := decodePacket(hdr, payload)
	if err != nil {
		return // corrupted/foreign packet: drop silently, like hardware
	}
	switch kind {
	case pktAck:
		if s, ok := c.senders.Get(src); ok {
			s.onAck(seq, flags&flagResent != 0)
		}
	case pktData:
		if r := c.receiver(src); r != nil {
			c.onData(r, flags, seq, aux, frag)
		}
	}
}
