package simnet

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/types"
)

// link models one ordered src→dst pipe: one queue and one goroutine, which
// swaps out everything pending under one lock operation, applies fault
// injection, computes each packet's arrival time, waits for it, and
// delivers. A run of packets delivered without waiting for the wire is one
// dispatch burst, ended by the destination's flush: after each drained
// batch, and before any wait (an idle wire ends a burst, whatever is queued).
//
// A packet on a link is a reference into the sender's message buffer, not a
// copy of it (inflight): enqueue copies the few header bytes inline and takes
// one reference to the buffer the payload is a window of, and whatever
// removes the packet from the pipe — loss, shutdown, or final delivery —
// releases that reference. Duplication is a second reference to the same
// bytes. A queued packet therefore pins its message buffer; on a link with no
// QueueCap what that can hold is bounded by the sender's window, which pins
// the same buffers until they are acknowledged anyway. The one packet that
// can stay on an idle link, a reorder hold, never pins lent memory (unlend).
type link struct {
	net      *Network
	src, dst types.NID
	timed    bool // the fabric has wire time: packets are stamped and waited for

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []inflight  //lint:guardedby mu
	closed atomic.Bool // written under mu; the goroutine also reads it mid-batch
	// backlog counts, for QueueCap only, packets accepted but not yet taken up.
	backlog atomic.Int64

	// The rest belongs to the run goroutine.
	rng     *rand.Rand // this link's own fault schedule; nil on a fabric without faults
	dup     inflight   // the duplicate of the packet being forwarded, for as long as forward runs
	held    inflight   // reorder buffer: a packet waiting to swap with its successor
	holding bool       // held is occupied
	lastEnd time.Time  // when the link finishes serializing what it has taken up
	to      *Endpoint  // the destination as last resolved; re-resolved once it closes
	fed     bool       // to.handler has run since to.flush last did
}

// MaxHeader is the longest header SendPacket accepts: a packet carries its
// header inline, so that only the payload need outlive the call.
const MaxHeader = 24

// inflight is one packet on its way through a link: the header by value, the
// payload as a view of the buffer owner keeps alive. The link hands hdr to
// the destination's handler as a slice, so an inflight is only ever delivered
// from where it already lives on the heap — a batch slot, the link's own dup
// and held — never from a local copy, which would escape once per packet.
type inflight struct {
	hdr     [MaxHeader]byte
	hdrLen  uint8
	payload []byte
	owner   *bufpool.Buf // the packet's reference to the buffer payload is a window of; nil if it was sent without one
	at      time.Time    // when it entered the link; zero on a fabric without wire time
}

// size is the packet's length on the wire.
func (p *inflight) size() int { return int(p.hdrLen) + len(p.payload) }

func newLink(n *Network, src, dst types.NID) *link {
	cfg := &n.cfg
	l := &link{net: n, src: src, dst: dst, timed: cfg.Latency > 0 || cfg.Bandwidth > 0}
	l.cond = sync.NewCond(&l.mu)
	if cfg.LossRate > 0 || cfg.DupRate > 0 || cfg.ReorderRate > 0 {
		// A function of (Seed, src, dst) only, whatever other links carry.
		l.rng = rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(src)<<32|uint64(dst))))
	}
	go l.run()
	return l
}

// enqueue queues one packet: hdr is copied into the queue slot, payload is
// kept as it is, with a reference to owner that the link releases when the
// packet leaves it. A packet the link refuses takes no reference.
func (l *link) enqueue(hdr, payload []byte, owner *bufpool.Buf) {
	var at time.Time
	if l.timed {
		at = time.Now()
	}
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		return
	}
	if qcap := int64(l.net.cfg.QueueCap); qcap > 0 && l.backlog.Add(1) > qcap {
		l.backlog.Add(-1)
		l.mu.Unlock()
		l.net.stats.TailDrops.Add(1)
		l.lost(len(hdr) + len(payload))
		return
	}
	// Amortized: queue and the goroutine's spare swap between two backings
	// that stop growing at the largest batch.
	l.queue = append(l.queue, inflight{})
	p := &l.queue[len(l.queue)-1]
	p.hdrLen = uint8(copy(p.hdr[:], hdr))
	p.payload, p.owner, p.at = payload, owner.Retain(), at
	l.mu.Unlock()
	l.cond.Signal()
}

// shutdown closes the link and releases what it still queues, after the
// lock: the last release of a lent body completes a put, which may send
// again.
func (l *link) shutdown() {
	l.mu.Lock()
	l.closed.Store(true)
	queue := l.queue
	l.queue = nil
	l.mu.Unlock()
	l.cond.Signal()
	for i := range queue {
		queue[i].owner.Release()
	}
}

// run is the link's goroutine: take everything queued, forward it, end the burst.
func (l *link) run() {
	var spare []inflight // recycled batch backing
	for !l.closed.Load() {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed.Load() {
			l.cond.Wait()
		}
		batch := l.queue
		l.queue = spare[:0]
		l.mu.Unlock()
		for i := range batch {
			l.forward(&batch[i])
			batch[i] = inflight{}
		}
		l.endBurst()
		spare = batch[:0]
	}
	if l.holding {
		l.held.owner.Release()
	}
}

// forward applies fault injection to one packet and delivers what is left
// of it, taking over p's reference. Loss removes the packet; duplication
// delivers it twice, on a reference of its own; reordering holds the last
// packet of the lot until the next one has passed, on a pooled copy if the
// payload is lent (unlend).
func (l *link) forward(p *inflight) {
	cfg := &l.net.cfg
	if cfg.QueueCap > 0 {
		l.backlog.Add(-1)
	}
	if l.closed.Load() {
		p.owner.Release()
		return
	}
	if cfg.LossRate > 0 && l.rng.Float64() < cfg.LossRate {
		l.lost(p.size())
		p.owner.Release()
		return
	}
	last := p // what goes out last of this lot, and is what a reorder holds back
	if cfg.DupRate > 0 && l.rng.Float64() < cfg.DupRate {
		l.net.stats.Duplicated.Add(1)
		l.dup = *p
		l.dup.owner = p.owner.Retain()
		l.deliver(p)
		last = &l.dup
	}
	switch {
	case cfg.ReorderRate > 0 && l.holding:
		l.deliver(last)
		l.deliver(&l.held) // the held packet goes after this one
		l.held, l.holding = inflight{}, false
		l.net.stats.Reordered.Add(1)
	case cfg.ReorderRate > 0 && l.rng.Float64() < cfg.ReorderRate:
		l.held, l.holding = *last, true
		l.unlend(&l.held)
	default:
		l.deliver(last)
	}
	if last != p {
		l.dup = inflight{}
	}
}

// unlend gives a held packet whose payload is lent memory (bufpool.Buf.Lend)
// a pooled copy of its own, and lets the loan go. A hold lasts until the next
// packet on the link, which may never come — behind a put's last fragment
// the link can stay idle — and a put completes only when its body is back.
// The copy is of the bytes first sent: a loan's bytes do not change.
func (l *link) unlend(p *inflight) {
	if !p.owner.Lent() {
		return
	}
	b := bufpool.Get(len(p.payload))
	copy(b.Bytes(), p.payload)
	p.owner.Release()
	p.payload, p.owner = b.Bytes(), b
}

// deliver puts one packet on the wire — it starts serializing when it
// entered the link or when its predecessor finished, whichever is later,
// takes size/Bandwidth, and arrives Latency after that — and hands it to
// the destination, which is looked up once and then only when it has closed.
// The packet's reference is released when the handler returns, or when there
// is nobody to hand it to.
func (l *link) deliver(p *inflight) {
	if l.timed {
		cfg := &l.net.cfg
		end := p.at
		if end.Before(l.lastEnd) {
			end = l.lastEnd
		}
		if cfg.Bandwidth > 0 {
			end = end.Add(time.Duration(float64(p.size()) / float64(cfg.Bandwidth) * float64(time.Second)))
		}
		l.lastEnd = end
		l.waitUntil(end.Add(cfg.Latency))
	}
	if l.to == nil || l.to.closed.Load() {
		l.endBurst()
		if l.to = l.net.node(l.dst); l.to == nil {
			l.lost(p.size())
			p.owner.Release()
			return
		}
	}
	l.net.stats.Delivered.Add(1)
	l.fed = true
	l.to.handler(l.src, p.hdr[:p.hdrLen], p.payload)
	p.owner.Release() // the handler copied what it keeps (PacketHandler)
}

// endBurst tells the destination that nothing more is coming right now.
func (l *link) endBurst() {
	if l.fed {
		l.fed = false
		l.to.flush()
	}
}

// lost counts a packet of size bytes that left the pipe undelivered.
func (l *link) lost(size int) {
	l.net.stats.Lost.Add(1)
	l.net.recordLoss(l.src, size)
}

// waitUntil waits for an arrival time, ending the burst first if there is
// any waiting to do. Short time.Sleep calls cost about a millisecond on
// Go/Linux, which would swamp Myrinet-class packet times (4 KB serializes
// in ~26 µs), so the final stretch is a cooperative yield loop: accurate,
// and every other goroutine still runs.
func (l *link) waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		l.endBurst()
		if d > 500*time.Microsecond {
			time.Sleep(d - 300*time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}
