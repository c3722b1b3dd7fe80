// Package nicsim models the network interface of a node: the component
// that receives wire messages from a transport, routes them to the right
// process, and runs the Portals delivery engine on them.
//
// The delivery engine runs on the transport's delivery goroutine or on the
// node's delivery lanes — never on an application goroutine. That is the
// architectural property the paper calls application bypass (§5.1): "the
// fundamental concept of Portals is to decouple the host processor from
// the network and allow data to flow with virtually no application
// processing."
//
// There is one way in and one way out. In: the transport hands onBatch
// batches of messages, each in a pooled buffer the node now owns
// (transport.BatchHandler); every message is admitted, hashed by (source
// NID, target PID) onto a delivery lane, and the batch's group for each
// lane is handed off in one piece. Out: Send gives the transport the
// message's pooled buffer and, for a put, the body lent out of the memory
// descriptor (transport.Endpoint.SendBuf). Nothing is copied on either side
// of the engine.
//
// Direct placement: a node asks every fabric that can for announcements
// (transport.Announcer). An announced message comes in as two entries of
// its flow's lane instead of one — the announcement, which the engine
// resolves (core.State.Resolve) and answers, and, when the answer was a
// placement, the completion, which it commits — and in between the fabric
// writes the body straight into the memory descriptor. Both travel the lanes
// like any message of the flow, so resolve runs after everything the peer
// sent earlier and commit before everything it sent later, and a lane that
// is behind holds the peer's clear-to-send back instead of filling a buffer.
//
// Delivery lanes (docs/PERF.md §5): with Config.Lanes > 1 the node runs N
// worker goroutines, one per lane. Messages of one (initiator, target)
// flow always land on the same lane in arrival order, so the §4.1 per-pair
// ordering guarantee survives; independent flows process concurrently,
// the way a real NIC processes independent DMA streams. Teardown needs no
// gate of its own: the endpoint's Close returns after the handler's last
// call (transport.Endpoint), and the lanes close after it.
//
// The idle-lane rule: a batch whose messages all sort onto one lane, when
// that lane has nothing queued or in progress, is run to completion on the
// transport's delivery goroutine instead of being handed to the lane's
// worker — the hand-off between two NIC-side goroutines buys nothing when
// there is nothing to run beside it. Lanes=1 is the same branch: one group
// per batch and no worker to give it to. §4.1 order holds because a lane's
// pending count is raised only by the node's dispatcher (batches arrive
// serially) and lowered only by its worker, so the zero the dispatcher reads
// stays zero until it dispatches again: nothing of that flow is behind the
// inline burst, and the next batch starts after it. §5.1 bypass holds
// because the delivery goroutine is the fabric's, never the application's.
// It is sound only because no fabric stops draining its wire while a
// handler is blocked (transport.BatchHandler).
//
// Two processing models are provided (§5.3 discusses both):
//
//   - NICOffload: the engine stands in for the Myrinet control program
//     running on the LANai — message processing costs the host nothing.
//   - HostInterrupt: "the particular implementation of Portals 3.0 that we
//     used for the above experiment is interrupt-driven" — each incoming
//     message charges the host an interrupt: it is counted, and an
//     optional per-message cost is burned before processing.
//
// Either way progress is independent of the application, which is why the
// Portals curve in Figure 6 falls with the work interval under both models.
package nicsim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"strconv"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
	"repro/internal/rcu"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Model selects where protocol processing happens.
type Model uint8

const (
	// NICOffload processes messages entirely "on the NIC".
	NICOffload Model = iota
	// HostInterrupt charges the host one interrupt per incoming message.
	HostInterrupt
)

// Config tunes a node's interface.
type Config struct {
	Model Model
	// InterruptCost is burned per message under HostInterrupt, modeling
	// interrupt entry/exit and cache disturbance (§5.1: "the interrupt
	// latency ... is fairly significant").
	InterruptCost time.Duration
	// Lanes is the number of parallel delivery lanes. 0 defaults to
	// GOMAXPROCS; 1 runs the engine inline on the transport's delivery
	// goroutine.
	Lanes int
}

// laneDepth bounds each lane's queue, in dispatch batches. Backpressure
// policy: when a lane is full the dispatcher BLOCKS the transport's delivery
// goroutine rather than dropping, preserving the §4.1 reliable-delivery
// guarantee. How far back that pressure reaches is the fabric's business: in
// rtscts the link goroutine inside the handler stops taking packets and that
// peer's window fills, while loopback and tcp keep taking messages off the
// wire and queue them in front of the delivery goroutine, unbounded (their
// SendBuf can wait on the wire, so they must never stop draining it:
// transport.BatchHandler). Lanes drain independently of the application
// (bypass, §5.1), so the wait is bounded by protocol processing, never by
// application behaviour.
const laneDepth = 1024

// laneBurst is the initial capacity of pooled lane dispatch batches.
const laneBurst = 64

// laneMsg is one admitted message in flight to (or inside) a lane: the
// decoded header, the payload view, the resolved target state, and the
// pooled carrier buffer to release after processing (nil when the bytes
// are plainly allocated and garbage collection handles them). For an
// announcement or a completion pl is set instead of payload and buf.
type laneMsg struct {
	src     types.NID
	state   *core.State
	hdr     wire.Header
	payload []byte
	buf     *bufpool.Buf
	pl      *placement
}

// placement carries one announced message through the node: from the
// announcement's admission to its answer, and — as the transport.Sink the
// fabric writes the body through — on to the completion's commit. A record
// belongs to one party at a time: the node until the answer, the fabric
// while the body lands, the node again from the completion on.
type placement struct {
	ann     transport.Delivery // the announcement; zero once it is answered
	state   *core.State
	op      core.Placement // what Resolve decided; valid from a Place answer on
	aborted bool           // the completion said the body never became whole
}

// The head of an announcement is exactly the Portals header — enough to
// resolve, and no payload that would have to be landed with the answer —
// so the offsets the fabric writes at are payload offsets moved up by it.
const (
	_ = uint(transport.HeadSize - wire.HeaderSize)
	_ = uint(wire.HeaderSize - transport.HeadSize)
)

var placementPool = sync.Pool{New: func() any { return new(placement) }}

// WriteAt lands one fragment of the message (transport.Sink); off counts
// from the start of the message, so the header is taken off it.
func (pl *placement) WriteAt(off int, b []byte) {
	pl.op.WriteAt(uint64(off-wire.HeaderSize), b)
}

// Abort ends a placement that will not be committed (transport.Sink, and
// the node's own path for an aborted completion).
func (pl *placement) Abort() {
	pl.state.Abort(&pl.op)
	pl.recycle()
}

func (pl *placement) recycle() {
	*pl = placement{}
	placementPool.Put(pl)
}

// lane carries admitted messages to one worker in batches: the dispatcher
// groups each incoming transport batch by lane and sends one pooled slice
// per lane, so channel operations are amortized over whole batches rather
// than paid per message.
type lane struct {
	ch chan *[]laneMsg
	// pending counts bursts handed to the worker and not yet finished. Only
	// onBatch raises it and only the worker lowers it (see the idle-lane
	// rule in the package comment).
	pending atomic.Int32
}

// burstPool recycles the slices lane channels carry. Ownership follows the
// data: the dispatcher takes a slice, fills it, and sends it or runs it
// inline; whoever ran it empties it and puts it back.
var burstPool = sync.Pool{
	New: func() any {
		s := make([]laneMsg, 0, laneBurst)
		return &s
	},
}

// Node is one machine on the fabric: a transport endpoint plus the set of
// local processes (§2: Portals "support multiple communicating processes
// per node").
type Node struct {
	nid      types.NID
	ep       transport.Endpoint
	cfg      Config
	counters stats.Counters // node-level: bad-target drops, interrupts

	// burstSizes tracks messages per lane burst, dispatched or inline (how
	// well per-burst costs amortize). Observe is three atomic adds.
	burstSizes metrics.Histogram

	// procs is the PID routing table, an rcu.Map: epochs are immutable
	// once published, so lanes look up targets with one atomic load and
	// zero contention. Writers (AddProcess(es)/RemoveProcess/Close)
	// serialize under mu, per the Map contract.
	procs rcu.Map[types.PID, *core.State]

	mu     sync.Mutex // serializes procs writers, and guards closed
	closed bool       //lint:guardedby mu

	lanes []*lane // the workers' queues; empty when Lanes == 1
	wg    sync.WaitGroup

	// groups (the batch being sorted, one pooled slice per lane, each gone
	// by the end of the batch) and inlineInc (processBurst's scratch for
	// inline bursts) belong to onBatch; no lock, because one endpoint's
	// batches arrive serially (transport.BatchHandler contract).
	groups    []*[]laneMsg
	inlineInc []core.Incoming
}

// NewNode attaches a node to a fabric.
func NewNode(net transport.Network, nid types.NID, cfg Config) (*Node, error) {
	if cfg.Lanes <= 0 {
		cfg.Lanes = runtime.GOMAXPROCS(0)
	}
	n := &Node{nid: nid, cfg: cfg, groups: make([]*[]laneMsg, cfg.Lanes)}
	if cfg.Lanes > 1 {
		n.lanes = make([]*lane, cfg.Lanes)
		for i := range n.lanes {
			n.lanes[i] = &lane{ch: make(chan *[]laneMsg, laneDepth)}
		}
	}
	ep, err := net.AttachBatch(nid, n.onBatch)
	if err != nil {
		return nil, err
	}
	if a, ok := ep.(transport.Announcer); ok {
		a.Announce() // messages that raced the call arrive whole, which onBatch takes as well
	}
	// Workers start only after the attach succeeded, so a failed NewNode
	// leaves nothing to tear down. The lane channels existed before the
	// attach: a handler invocation racing this loop merely queues.
	for _, ln := range n.lanes {
		n.wg.Add(1)
		go n.laneWorker(ln)
	}
	n.ep = ep
	return n, nil
}

// NID reports the node id.
func (n *Node) NID() types.NID { return n.nid }

// Counters exposes node-level counters (bad-target drops, interrupts).
func (n *Node) Counters() *stats.Counters { return &n.counters }

// Lanes reports the number of delivery lanes in effect.
func (n *Node) Lanes() int { return n.cfg.Lanes }

// RegisterMetrics exposes the node's counters, its burst-size histogram,
// a per-lane queue-depth gauge, and — when the transport endpoint itself is
// a metrics.Registerer (rtscts.Conn) — the endpoint's stats, all under the
// given labels. Gauges read lane-channel lengths at exposition time only.
func (n *Node) RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	n.counters.RegisterMetrics(r, ls)
	r.RegisterHistogram("portals_lane_burst_msgs",
		"messages per lane dispatch burst", ls, &n.burstSizes)
	for i, ln := range n.lanes {
		ch := ln.ch
		r.GaugeFunc("portals_lane_depth_bursts",
			"dispatch bursts queued on the lane",
			ls.With(metrics.L("lane", strconv.Itoa(i))),
			func() int64 { return int64(len(ch)) })
	}
	if reg, ok := n.ep.(metrics.Registerer); ok {
		reg.RegisterMetrics(r, ls)
	}
}

// AddProcess registers a process's Portals state under its PID.
func (n *Node) AddProcess(pid types.PID, s *core.State) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return types.ErrClosed
	}
	if !n.procs.Insert(pid, s) {
		return fmt.Errorf("nicsim: pid %d already registered on nid %d", pid, n.nid)
	}
	return nil
}

// AddProcesses registers a batch of processes in one epoch publication.
// Copy-on-write makes per-PID registration O(n) in the table size, so
// populating a node with 10⁵ processes one at a time would cost O(n²) map
// copies; the bulk path copies once. Any duplicate PID fails the whole
// batch with nothing registered.
func (n *Node) AddProcesses(procs map[types.PID]*core.State) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return types.ErrClosed
	}
	for pid := range procs {
		if _, dup := n.procs.Get(pid); dup {
			return fmt.Errorf("nicsim: pid %d already registered on nid %d", pid, n.nid)
		}
	}
	n.procs.Update(func(m map[types.PID]*core.State) {
		for pid, s := range procs {
			m[pid] = s
		}
	})
	return nil
}

// RemoveProcess deregisters a process; subsequent messages for it are
// dropped with the bad-target reason (§4.8's first check). Messages
// already admitted to a lane resolved their state earlier and still
// complete, like DMAs a real NIC already started.
func (n *Node) RemoveProcess(pid types.PID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.procs.Delete(pid)
}

// lookup finds the state for a local PID: one atomic load, no lock, so
// concurrent lanes never contend on node state.
func (n *Node) lookup(pid types.PID) *core.State {
	s, _ := n.procs.Get(pid)
	return s
}

// outScratch pools the per-burst Outbound scratch slices so the delivery
// engine's steady state allocates nothing (docs/PERF.md).
var outScratch = sync.Pool{
	New: func() any {
		s := make([]core.Outbound, 0, 4)
		return &s
	},
}

// Send transmits an initiator-side or engine-generated message, CONSUMING
// it: the message's pooled buffer — every Outbound the core builds has one
// — and a put's lent body are handed to the transport, which owns them from
// here on, error or not. The body's return completes the put, and what the
// completion fires is sent through n. The caller must not use or Recycle
// out afterwards.
func (n *Node) Send(out core.Outbound) error {
	// On the delivery path this runs on a lane worker or, for an inline
	// burst, on the fabric's delivery goroutine (transmit stage) — never on
	// an application goroutine, so a transport that writes to the wire here
	// (tcp) blocks the engine on its peer's socket, not on an application:
	// bypass holds. The peer's readers never wait for its engine, so the
	// write waits for the network only.
	//lint:ignore bypassviolation tcp's SendBuf writes to its socket synchronously; loopback and rtscts queue the buffer
	return n.ep.SendBuf(out.Dst.NID, out.TakeBuf(), out.TakeBody(n))
}

// admit runs the §4.8 admission checks — decodable, valid local target —
// and resolves the target process. It is the part of delivery that stays
// on the transport goroutine; everything after it can move to a lane. What
// it admits it takes from d: the message's buffer, the announcement with
// its obligation to answer, the completion's record.
func (n *Node) admit(d *transport.Delivery) (laneMsg, bool) {
	if pl, ok := d.Sink.(*placement); ok {
		// A completion was admitted when it was announced; its process may
		// have been removed since, and like a message already on a lane it
		// still completes.
		d.Sink = nil
		pl.aborted = d.Aborted
		return laneMsg{src: d.Src, state: pl.state, hdr: *pl.op.Header(), pl: pl}, true
	}
	m := laneMsg{src: d.Src}
	var err error
	if d.Total == 0 {
		m.hdr, m.payload, err = wire.DecodeMessage(d.Msg)
	} else if err = m.hdr.Decode(d.Msg); err == nil && uint64(d.Total-wire.HeaderSize) < m.hdr.PayloadLen() {
		err = errShortAnnouncement
	}
	if err != nil {
		// Undecodable traffic: no valid target, count at node level.
		n.counters.Drop(types.DropBadTarget)
		return laneMsg{}, false
	}
	// §4.8: "the runtime system first checks that the target process
	// identified in the request is a valid process that has initialized
	// the network interface."
	m.state = n.lookup(m.hdr.Target.PID)
	if m.state == nil || m.hdr.Target.NID != n.nid {
		n.counters.Drop(types.DropBadTarget)
		return laneMsg{}, false
	}
	if d.Total == 0 {
		m.buf, d.Buf = d.Buf, nil
	} else {
		m.pl = placementPool.Get().(*placement)
		m.pl.ann, m.pl.state = *d, m.state
		*d = transport.Delivery{}
	}
	return m, true
}

// errShortAnnouncement: the announced length cannot hold the payload the
// announced header declares — wire.DecodeMessage's truncation check, made
// before the bytes exist.
var errShortAnnouncement = errors.New("nicsim: announced message shorter than its header declares")

// laneIndex hashes a flow onto a lane. The key is (source NID, target
// PID): everything one initiating node sends to one target process maps to
// the same lane, which is what preserves §4.1 per-(initiator, target)
// ordering — a lane is FIFO, and no two lanes ever carry the same flow.
func laneIndex(src types.NID, pid types.PID, lanes int) int {
	h := uint64(src)*0x9E3779B97F4A7C15 ^ uint64(pid)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % uint64(lanes))
}

// onBatch is the delivery entry (transport.BatchHandler). Message
// ownership transfers from the transport, so dispatching to lanes moves
// pointers, not bytes: the batch is grouped by lane and each group goes to
// its lane in one piece, preserving arrival order per flow (a flow's
// messages are all in the same group, in batch order). A group with no
// worker to go to (Lanes=1), or alone in its batch on an idle lane, is run
// here instead.
func (n *Node) onBatch(batch []transport.Delivery) {
	groups := n.groups
	ngroups := 0
	traced := trace.Enabled() // hoisted: one branch per batch when disabled
	for i := range batch {
		d := &batch[i]
		m, ok := n.admit(d)
		if !ok {
			d.Discard() // an announcement for nobody: no buffer for its body either
			d.Release()
			continue
		}
		li := laneIndex(m.src, m.hdr.Target.PID, len(groups))
		if traced {
			trace.Record(trace.StageLaneDispatch,
				uint32(m.hdr.Initiator.NID), uint32(m.hdr.Initiator.PID), uint64(m.hdr.Seq), uint64(li))
		}
		if groups[li] == nil {
			groups[li] = burstPool.Get().(*[]laneMsg)
			ngroups++
		}
		*groups[li] = append(*groups[li], m)
	}
	for li, g := range groups {
		if g == nil {
			continue
		}
		groups[li] = nil
		n.burstSizes.Observe(int64(len(*g)))
		if len(n.lanes) == 0 || ngroups == 1 && n.lanes[li].pending.Load() == 0 {
			n.runBurst(g, &n.inlineInc)
		} else {
			n.dispatch(li, g)
		}
	}
}

// dispatch queues a batch of admitted messages on one lane — never a closed
// one (Close).
func (n *Node) dispatch(li int, g *[]laneMsg) {
	n.lanes[li].pending.Add(1)
	// A full lane blocks here — the documented backpressure policy (see
	// laneDepth): the fabric's delivery goroutine waits instead of
	// dropping, and lane drain is independent of the application.
	//lint:ignore bypassviolation lane workers drain independently of the application (bypass holds); blocking here is backpressure on the fabric's delivery goroutine, bounded by protocol processing only
	n.lanes[li].ch <- g
}

// laneWorker drains one lane batch by batch, running the engine over each
// batch as a unit. The loop exits when Close closes the dispatch channel
// (worker-pool shutdown).
func (n *Node) laneWorker(ln *lane) {
	defer n.wg.Done()
	var inc []core.Incoming
	for g := range ln.ch {
		n.runBurst(g, &inc)
		ln.pending.Add(-1)
	}
}

// runBurst runs the engine over one dispatch batch and gives its slice back
// to the pool — on a lane worker, or on the transport's delivery goroutine
// for an inline burst.
func (n *Node) runBurst(g *[]laneMsg, inc *[]core.Incoming) {
	n.processBurst(*g, inc)
	*g = (*g)[:0]
	burstPool.Put(g)
}

// processBurst runs the delivery engine over a burst of admitted messages,
// reusing one outbound scratch and one Incoming slice across the whole
// burst. Contiguous runs of whole messages for the same target process are
// handed to core.HandleIncomingBatch together; an announcement or a
// completion is settled on its own, in its place in the order. Burst entries
// are consumed: carrier buffers are released and the slice's references
// cleared.
func (n *Node) processBurst(burst []laneMsg, inc *[]core.Incoming) {
	if len(burst) == 0 {
		return
	}
	// A scratch-pool miss is warm-up; the steady state hits the per-P
	// private slot.
	sp := outScratch.Get().(*[]core.Outbound)
	outs := (*sp)[:0]
	for i := 0; i < len(burst); {
		if burst[i].pl != nil {
			outs = n.settle(&burst[i], outs[:0])
			n.transmit(outs)
			burst[i] = laneMsg{}
			i++
			continue
		}
		state := burst[i].state
		j := i
		for j < len(burst) && burst[j].state == state && burst[j].pl == nil {
			n.chargeInterrupt(state)
			*inc = append(*inc, core.Incoming{H: burst[j].hdr, Payload: burst[j].payload})
			j++
		}
		outs = state.HandleIncomingBatch(*inc, outs[:0])
		// The payload views die with their carriers below: a view left in
		// the scratch would keep a released buffer reachable.
		for k := range *inc {
			(*inc)[k].Payload = nil
		}
		*inc = (*inc)[:0]
		n.transmit(outs)
		for k := i; k < j; k++ {
			if burst[k].buf != nil {
				burst[k].buf.Release()
			}
			burst[k] = laneMsg{}
		}
		i = j
	}
	*sp = outs[:0]
	outScratch.Put(sp)
}

// settle runs one placement form in its place on the lane. An announcement
// is resolved and answered — Place with the record as the sink, Discard, or,
// by releasing it unanswered, Buffer; the answer is what lets the peer send.
// A completion is committed, or aborted if the body never became whole. One
// interrupt is charged per message, at its completion.
func (n *Node) settle(m *laneMsg, out []core.Outbound) []core.Outbound {
	pl := m.pl
	if pl.ann.Total == 0 {
		n.chargeInterrupt(pl.state)
		if pl.aborted {
			pl.Abort()
			return out
		}
		out = pl.state.Commit(&pl.op, out)
		pl.recycle()
		return out
	}
	ann := pl.ann
	pl.ann = transport.Delivery{}
	switch pl.state.Resolve(&m.hdr, &pl.op) {
	case core.Place:
		// From a successful Place on the record is the fabric's, and may be
		// back as a completion on another goroutine before Place returns.
		if !ann.Place(pl) {
			pl.Abort()
		}
		ann.Release()
		return out
	case core.Discard:
		ann.Discard()
	}
	ann.Release()
	pl.recycle()
	return out
}

// transmit sends the engine's responses, clearing the slice. Send consumes
// each message (its buffer becomes the transport's).
func (n *Node) transmit(outs []core.Outbound) {
	for i := range outs {
		// A response that cannot be transmitted is dropped silently, like
		// an ack on a failed link; the initiator's protocol copes
		// (Portals acks are advisory).
		_ = n.Send(outs[i])
		outs[i] = core.Outbound{}
	}
}

func (n *Node) chargeInterrupt(state *core.State) {
	if n.cfg.Model != HostInterrupt {
		return
	}
	n.counters.Interrupt()
	state.Counters().Interrupt()
	if n.cfg.InterruptCost > 0 {
		burn(n.cfg.InterruptCost)
	}
}

// Close detaches the node and drains the lanes; process states are not
// closed — they belong to their owners. The endpoint's Close returns after
// the handler's last call, so nothing dispatches onto a lane once its
// channel is closed, and wg.Wait returns once every worker has drained its
// lane.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.procs.Clear()
	n.mu.Unlock()
	err := n.ep.Close()
	for _, ln := range n.lanes {
		close(ln.ch)
	}
	n.wg.Wait()
	return err
}
