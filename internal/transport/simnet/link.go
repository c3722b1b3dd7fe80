package simnet

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/types"
)

// link models one ordered src→dst pipe: an input queue, a pacer goroutine
// that serializes packets at the configured bandwidth and applies fault
// injection, and a delayer goroutine that holds each packet for the wire
// latency. Splitting pacing from latency lets packet k+1's serialization
// overlap packet k's flight, as on real hardware.
//
// Packets travel as pooled buffers (internal/bufpool): enqueue gathers the
// caller's header and payload into one, the only copy between the sender's
// message buffer and the receiver's, and whichever stage removes a packet
// from the pipeline — loss, tail drop, shutdown, or final delivery —
// releases it. Duplication emits an independent pooled copy, never the same
// buffer twice (the delayer releases each buffer exactly once).
type link struct {
	net *Network
	src types.NID
	dst types.NID

	mu     sync.Mutex
	cond   *sync.Cond
	queue  bufpool.Queue
	closed bool

	// pacer → delayer wire buffer. A cond-guarded slice rather than a
	// channel so the delayer can dequeue the whole pending batch in one
	// lock operation (docs/PERF.md §6); capacity-bounded like the channel
	// it replaced, with overflow treated as a congestion drop.
	wireMu     sync.Mutex
	wireCond   *sync.Cond
	wireQ      []timedPkt
	wireClosed bool

	held *bufpool.Buf // reorder buffer: a packet waiting to swap with its successor
}

// wireCap bounds the pacer→delayer buffer, mirroring the 1024-slot channel
// this stage used to be.
const wireCap = 1024

type timedPkt struct {
	arrival time.Time
	pkt     *bufpool.Buf
}

func newLink(n *Network, src, dst types.NID) *link {
	//lint:ignore noalloc the first packet between a pair builds the link (two goroutines); never again
	l := &link{net: n, src: src, dst: dst, wireQ: make([]timedPkt, 0, 64)}
	l.cond = sync.NewCond(&l.mu)
	l.wireCond = sync.NewCond(&l.wireMu)
	//lint:ignore noalloc per-link goroutine, started once
	go l.pace()
	//lint:ignore noalloc per-link goroutine, started once
	go l.delay()
	return l
}

// enqueue gathers hdr and payload into one pooled packet and queues it for
// the pacer: SendPacket's contract lets the caller reuse both slices as soon
// as it returns.
//
//lint:noalloc the per-packet copy lands in pooled memory and the queue is a ring
func (l *link) enqueue(hdr, payload []byte) {
	cp := bufpool.Get(len(hdr) + len(payload))
	copy(cp.Bytes()[copy(cp.Bytes(), hdr):], payload)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		cp.Release()
		return
	}
	if qcap := l.net.cfg.QueueCap; qcap > 0 && l.queue.Len() >= qcap {
		l.mu.Unlock()
		l.net.stats.TailDrops.Add(1)
		l.net.stats.Lost.Add(1)
		l.net.recordLoss(l.src, len(cp.Bytes()))
		cp.Release()
		return
	}
	l.queue.Push(cp)
	l.mu.Unlock()
	l.cond.Signal()
}

func (l *link) shutdown() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	for l.queue.Len() > 0 {
		l.queue.Pop().Release()
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// pace pops packets, applies fault injection, serializes them at the link
// bandwidth, and hands them to the delayer stamped with their arrival time.
func (l *link) pace() {
	cfg := l.net.cfg
	var lastEnd time.Time
	for {
		l.mu.Lock()
		for l.queue.Len() == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			if l.held != nil {
				l.held.Release()
				l.held = nil
			}
			l.wireMu.Lock()
			l.wireClosed = true
			l.wireMu.Unlock()
			l.wireCond.Signal()
			return
		}
		pkt := l.queue.Pop()
		l.mu.Unlock()

		// Fault injection. Loss removes the packet; duplication emits an
		// independent copy; reordering holds a packet until the next one
		// passes. emit is a fixed array so pacing allocates nothing.
		if cfg.LossRate > 0 && l.net.random() < cfg.LossRate {
			l.net.stats.Lost.Add(1)
			l.net.recordLoss(l.src, len(pkt.Bytes()))
			pkt.Release()
			continue
		}
		var emit [2]*bufpool.Buf
		ne := 1
		if cfg.DupRate > 0 && l.net.random() < cfg.DupRate {
			l.net.stats.Duplicated.Add(1)
			dup := bufpool.Get(len(pkt.Bytes()))
			copy(dup.Bytes(), pkt.Bytes())
			emit[ne] = dup
			ne++
		}
		emit[0] = pkt
		var after *bufpool.Buf // held packet goes AFTER this batch
		if cfg.ReorderRate > 0 {
			if l.held != nil {
				after = l.held
				l.held = nil
				l.net.stats.Reordered.Add(1)
			} else if l.net.random() < cfg.ReorderRate {
				ne--
				l.held = emit[ne]
				emit[ne] = nil
			}
		}
		for _, p := range emit[:ne] {
			l.transmit(p, &lastEnd, cfg)
		}
		if after != nil {
			l.transmit(after, &lastEnd, cfg)
		}
	}
}

// transmit serializes one packet at the link bandwidth and hands it to the
// delayer; a full wire buffer is a congestion drop, which releases the
// packet here.
//
//lint:consumes p
func (l *link) transmit(p *bufpool.Buf, lastEnd *time.Time, cfg Config) {
	start := time.Now()
	if start.Before(*lastEnd) {
		start = *lastEnd
	}
	end := start
	if cfg.Bandwidth > 0 {
		end = start.Add(time.Duration(float64(len(p.Bytes())) / float64(cfg.Bandwidth) * float64(time.Second)))
	}
	*lastEnd = end
	sleepUntil(end) // link occupied while serializing
	l.wireMu.Lock()
	if l.wireClosed || len(l.wireQ) >= wireCap {
		l.wireMu.Unlock()
		// Wire buffer overflow (or link torn down): congestion drop.
		l.net.stats.TailDrops.Add(1)
		l.net.stats.Lost.Add(1)
		l.net.recordLoss(l.src, len(p.Bytes()))
		p.Release()
		return
	}
	l.wireQ = append(l.wireQ, timedPkt{arrival: end.Add(cfg.Latency), pkt: p})
	l.wireMu.Unlock()
	l.wireCond.Signal()
}

// delay holds each packet until its arrival time, then delivers it.
// Arrival times are monotone per link, so FIFO dequeue order is correct.
// Each wakeup swaps the whole pending batch out under one lock operation;
// a loaded link then pays one mutex round-trip for many packets instead of
// one channel operation each.
func (l *link) delay() {
	var spare []timedPkt // recycled batch backing; owned by this goroutine
	for {
		l.wireMu.Lock()
		for len(l.wireQ) == 0 && !l.wireClosed {
			l.wireCond.Wait()
		}
		if len(l.wireQ) == 0 && l.wireClosed {
			l.wireMu.Unlock()
			return
		}
		batch := l.wireQ
		l.wireQ = spare[:0]
		l.wireMu.Unlock()
		for i := range batch {
			sleepUntil(batch[i].arrival)
			l.net.deliver(l.src, l.dst, batch[i].pkt.Bytes())
			// The handler contract (PacketHandler) requires receivers to
			// copy anything they retain, so the buffer can be recycled now.
			batch[i].pkt.Release()
			batch[i] = timedPkt{}
		}
		spare = batch[:0]
	}
}

// sleepUntil waits for a deadline with microsecond fidelity. The Go/Linux
// timer granularity makes short time.Sleep calls cost about a
// millisecond, which would swamp Myrinet-class packet times (a 4 KB
// packet serializes in ~26 µs); the final stretch is therefore a
// cooperative yield loop, which is accurate and still lets every other
// goroutine run.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 500*time.Microsecond {
			time.Sleep(d - 300*time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
}
