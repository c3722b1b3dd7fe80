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
// Packets travel as pooled buffers (internal/bufpool): enqueue gathers the
// caller's header and payload into one, the only copy between the sender's
// message buffer and the receiver's, and whatever removes a packet from the
// pipe — loss, tail drop, shutdown, or final delivery — releases it.
// Duplication emits an independent pooled copy, never the same buffer twice.
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
	held    inflight   // reorder buffer: a packet waiting to swap with its successor
	lastEnd time.Time  // when the link finishes serializing what it has taken up
	to      *Endpoint  // the destination as last resolved; re-resolved once it closes
	fed     bool       // to.handler has run since to.flush last did
}

// inflight is one packet on its way through a link.
type inflight struct {
	pkt *bufpool.Buf
	at  time.Time // when it entered the link; zero on a fabric without wire time
}

func newLink(n *Network, src, dst types.NID) *link {
	cfg := &n.cfg
	//lint:ignore noalloc the first packet between a pair builds the link (one goroutine); never again
	l := &link{net: n, src: src, dst: dst, timed: cfg.Latency > 0 || cfg.Bandwidth > 0}
	l.cond = sync.NewCond(&l.mu)
	if cfg.LossRate > 0 || cfg.DupRate > 0 || cfg.ReorderRate > 0 {
		// A function of (Seed, src, dst) only, whatever other links carry.
		//lint:ignore noalloc part of building the link
		l.rng = rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(src)<<32|uint64(dst))))
	}
	//lint:ignore noalloc per-link goroutine, started once
	go l.run()
	return l
}

// enqueue gathers hdr and payload into one pooled packet and queues it: the
// caller may reuse both slices as soon as it returns (SendPacket's contract).
//
//lint:noalloc the per-packet copy lands in pooled memory and the queue swaps between two backings
func (l *link) enqueue(hdr, payload []byte) {
	cp := bufpool.Get(len(hdr) + len(payload))
	copy(cp.Bytes()[copy(cp.Bytes(), hdr):], payload)
	var at time.Time
	if l.timed {
		at = time.Now()
	}
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		cp.Release()
		return
	}
	if qcap := int64(l.net.cfg.QueueCap); qcap > 0 && l.backlog.Add(1) > qcap {
		l.backlog.Add(-1)
		l.mu.Unlock()
		l.net.stats.TailDrops.Add(1)
		l.lose(cp)
		return
	}
	//lint:ignore noalloc amortized: queue and the goroutine's spare swap between two backings that stop growing at the largest batch
	l.queue = append(l.queue, inflight{pkt: cp, at: at})
	l.mu.Unlock()
	l.cond.Signal()
}

func (l *link) shutdown() {
	l.mu.Lock()
	l.closed.Store(true)
	for _, p := range l.queue {
		p.pkt.Release()
	}
	l.queue = nil
	l.mu.Unlock()
	l.cond.Signal()
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
		for i, p := range batch {
			l.forward(p)
			batch[i] = inflight{}
		}
		l.endBurst()
		spare = batch[:0]
	}
	if l.held.pkt != nil {
		l.held.pkt.Release()
	}
}

// forward applies fault injection to one packet and delivers what is left
// of it. Loss removes the packet; duplication emits an independent copy;
// reordering holds a packet until the next one has passed.
//
//lint:consumes p
func (l *link) forward(p inflight) {
	cfg := &l.net.cfg
	if cfg.QueueCap > 0 {
		l.backlog.Add(-1)
	}
	if l.closed.Load() {
		p.pkt.Release()
		return
	}
	if cfg.LossRate > 0 && l.rng.Float64() < cfg.LossRate {
		l.lose(p.pkt)
		return
	}
	emit := [3]inflight{p} // a fixed array: forwarding allocates nothing
	ne := 1
	if cfg.DupRate > 0 && l.rng.Float64() < cfg.DupRate {
		l.net.stats.Duplicated.Add(1)
		dup := bufpool.Get(len(p.pkt.Bytes()))
		copy(dup.Bytes(), p.pkt.Bytes())
		emit[ne] = inflight{pkt: dup, at: p.at}
		ne++
	}
	if cfg.ReorderRate > 0 {
		if l.held.pkt != nil {
			emit[ne] = l.held // the held packet goes after this one
			ne++
			l.held = inflight{}
			l.net.stats.Reordered.Add(1)
		} else if l.rng.Float64() < cfg.ReorderRate {
			ne--
			l.held = emit[ne]
		}
	}
	for _, e := range emit[:ne] {
		l.deliver(e)
	}
}

// deliver puts one packet on the wire — it starts serializing when it
// entered the link or when its predecessor finished, whichever is later,
// takes size/Bandwidth, and arrives Latency after that — and hands it to
// the destination, which is looked up once and then only when it has closed.
//
//lint:consumes p
func (l *link) deliver(p inflight) {
	if l.timed {
		cfg := &l.net.cfg
		end := p.at
		if end.Before(l.lastEnd) {
			end = l.lastEnd
		}
		if cfg.Bandwidth > 0 {
			end = end.Add(time.Duration(float64(len(p.pkt.Bytes())) / float64(cfg.Bandwidth) * float64(time.Second)))
		}
		l.lastEnd = end
		l.waitUntil(end.Add(cfg.Latency))
	}
	if l.to == nil || l.to.closed.Load() {
		l.endBurst()
		if l.to = l.net.node(l.dst); l.to == nil {
			l.lose(p.pkt)
			return
		}
	}
	l.net.stats.Delivered.Add(1)
	l.fed = true
	l.to.handler(l.src, p.pkt.Bytes())
	p.pkt.Release() // the handler copied what it keeps (PacketHandler)
}

// endBurst tells the destination that nothing more is coming right now.
func (l *link) endBurst() {
	if l.fed {
		l.fed = false
		l.to.flush()
	}
}

// lose removes a packet from the pipe and counts it.
//
//lint:consumes pkt
func (l *link) lose(pkt *bufpool.Buf) {
	l.net.stats.Lost.Add(1)
	l.net.recordLoss(l.src, len(pkt.Bytes()))
	pkt.Release()
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
