// Package simnet simulates the raw packet fabric the Cplant RTS/CTS stack
// ran on: an UNRELIABLE packet network with configurable latency, per-link
// bandwidth pacing, an MTU, and fault injection (loss, duplication,
// reordering, tail drop). It stands in for the Myrinet hardware of §3 —
// the paper's repro gate — and deliberately offers weaker guarantees than
// Portals needs, so that the rtscts layer has a real job to do.
//
// Timing model: each link (ordered src→dst pair) is a store-and-forward
// pipe run by one goroutine. A packet of n bytes that enters the link at t
// starts serializing at max(t, the end of its predecessor), occupies the
// link for n/Bandwidth seconds, then arrives Latency later; the link
// computes that arrival time and waits for it, so serialization of packet
// k+1 overlaps the flight of packet k, like real wires, and a fabric with
// neither latency nor bandwidth reads no clock. Go's sleep granularity is
// coarser than a microsecond, so absolute numbers are approximate; relative
// shape (who is faster, where curves cross) is preserved, which is the
// reproduction target. Each link draws its faults from its own generator,
// seeded from (Seed, src, dst): its loss/duplication/reorder schedule
// depends on the order packets enter that link and on nothing else.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
	"repro/internal/rcu"
	"repro/internal/types"
)

// Config describes one fabric.
type Config struct {
	// Latency is the one-way wire latency per packet.
	Latency time.Duration
	// Bandwidth is the link rate in bytes/second; 0 means infinite.
	Bandwidth int64
	// MTU is the largest packet accepted; larger sends fail loudly.
	MTU int
	// LossRate, DupRate, ReorderRate ∈ [0,1) inject faults per packet.
	LossRate    float64
	DupRate     float64
	ReorderRate float64
	// QueueCap bounds the packets a link holds without having begun to
	// serialize them; beyond it they are tail-dropped (counted as lost).
	// 0 means unbounded.
	QueueCap int
	// Seed makes fault injection reproducible, link by link.
	Seed int64
}

// Myrinet returns parameters approximating the paper's fabric: Myrinet
// with LANai NICs (~160 MB/s payload rate, a few µs of wire latency,
// 4 KB packets).
func Myrinet() Config {
	return Config{Latency: 5 * time.Microsecond, Bandwidth: 160e6, MTU: 4096}
}

// GigE returns parameters approximating commodity gigabit Ethernet through
// a kernel stack (the "programmable gigabit Ethernet" port of §7).
func GigE() Config {
	return Config{Latency: 30 * time.Microsecond, Bandwidth: 110e6, MTU: 1500}
}

// Instant returns a fabric with no delays and no faults, for fast tests.
func Instant() Config { return Config{MTU: 65536} }

// PacketHandler receives raw packets, header and payload as they were sent.
// Both are the handler's to read until it returns, never to write: payload
// is the sender's own buffer, which the sender may be sending again at the
// same moment. What the handler keeps, it copies.
type PacketHandler func(src types.NID, hdr, payload []byte)

// Stats counts fabric-level events.
type Stats struct {
	Sent       atomic.Int64
	Delivered  atomic.Int64
	Lost       atomic.Int64
	Duplicated atomic.Int64
	Reordered  atomic.Int64
	TailDrops  atomic.Int64
}

// Network is a simulated fabric.
type Network struct {
	cfg     Config
	stats   Stats
	lossSeq atomic.Uint64 // keys flight-recorder loss instants

	// mu guards attachment and link creation; packets go by Endpoint.links and link.to.
	mu     sync.Mutex
	nodes  map[types.NID]*Endpoint
	links  map[linkKey]*link
	closed bool
}

type linkKey struct{ src, dst types.NID }

// New builds a fabric with the given configuration.
func New(cfg Config) *Network {
	if cfg.MTU <= 0 {
		cfg.MTU = 4096
	}
	return &Network{
		cfg:   cfg,
		nodes: make(map[types.NID]*Endpoint),
		links: make(map[linkKey]*link),
	}
}

// Stats exposes the fabric counters.
func (n *Network) Stats() *Stats { return &n.stats }

// RegisterMetrics exposes the fabric counters as CounterFunc views; the
// packet pipeline keeps bumping the same atomics it always did.
func (n *Network) RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	st := &n.stats
	r.CounterFunc("portals_fabric_sent_total", "packets accepted by the fabric", ls, st.Sent.Load)
	r.CounterFunc("portals_fabric_delivered_total", "packets handed to a destination handler", ls, st.Delivered.Load)
	r.CounterFunc("portals_fabric_lost_total", "packets removed by loss, congestion, or detached nodes", ls, st.Lost.Load)
	r.CounterFunc("portals_fabric_duplicated_total", "packets duplicated by fault injection", ls, st.Duplicated.Load)
	r.CounterFunc("portals_fabric_reordered_total", "packets swapped past a successor", ls, st.Reordered.Load)
	r.CounterFunc("portals_fabric_tail_drops_total", "packets dropped by full queues", ls, st.TailDrops.Load)
}

// recordLoss stamps a flight-recorder instant for a dropped packet. The
// fabric is protocol-agnostic and cannot see reliability-layer sequence
// numbers, so loss instants are keyed (src, pid 0, per-fabric drop counter)
// with the packet length as the argument.
func (n *Network) recordLoss(src types.NID, size int) {
	if trace.Enabled() {
		trace.Record(trace.StageLoss, uint32(src), 0, n.lossSeq.Add(1), uint64(size))
	}
}

// MTU reports the fabric's packet size limit.
func (n *Network) MTU() int { return n.cfg.MTU }

// Endpoint is a node's attachment to the fabric.
type Endpoint struct {
	net     *Network
	nid     types.NID
	handler PacketHandler
	flush   func()
	closed  atomic.Bool
	links   rcu.Map[types.NID, *link] // outgoing links by destination; filled under net.mu, read without it
}

// Attach is AttachBurst for a handler that does not care where bursts end.
func (n *Network) Attach(nid types.NID, h PacketHandler) (*Endpoint, error) {
	return n.AttachBurst(nid, h, func() {})
}

// AttachBurst registers a node with its raw-packet handler. Each link
// delivering to it calls flush, from the goroutine that just ran h, whenever
// it has handed over every packet that was due and is about to wait for more.
// One source is delivered by one goroutine, different sources concurrently.
func (n *Network) AttachBurst(nid types.NID, h PacketHandler, flush func()) (*Endpoint, error) {
	if h == nil || flush == nil {
		return nil, fmt.Errorf("simnet: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, types.ErrClosed
	}
	if _, dup := n.nodes[nid]; dup {
		return nil, fmt.Errorf("simnet: nid %d already attached", nid)
	}
	ep := &Endpoint{net: n, nid: nid, handler: h, flush: flush}
	n.nodes[nid] = ep
	return ep, nil
}

// Close tears down the fabric and all links.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	links, nodes := n.links, n.nodes
	n.links, n.nodes = nil, nil
	n.mu.Unlock()
	for _, ep := range nodes {
		ep.closed.Store(true) // links deliver to the endpoint they cached until it closes
	}
	for _, l := range links {
		l.shutdown()
	}
	return nil
}

// LocalNID reports the attached node id.
func (ep *Endpoint) LocalNID() types.NID { return ep.nid }

// Close detaches the node; packets in flight to it vanish.
func (ep *Endpoint) Close() error {
	ep.closed.Store(true)
	ep.net.mu.Lock()
	if ep.net.nodes[ep.nid] == ep {
		delete(ep.net.nodes, ep.nid)
	}
	ep.net.mu.Unlock()
	return nil
}

var (
	errHeader  = fmt.Errorf("simnet: header exceeds the %d bytes a packet carries inline", MaxHeader)
	errNoOwner = errors.New("simnet: payload without the buffer that owns it")
)

// SendPacket queues one packet for dst: hdr followed by payload (either may
// be empty). hdr is copied and may be reused as soon as SendPacket returns.
// payload is not copied: it must be a window of owner, to which the caller
// holds a reference for the length of the call, and the link keeps it alive
// with a reference of its own until the packet has been delivered or lost —
// the way a NIC reads a message out of host memory instead of asking the host
// to copy it first. The bytes must not change while any reference is out.
// SendPacket never blocks: congestion beyond QueueCap tail-drops, like a real
// switch. A packet over the MTU, a header over MaxHeader, and a payload
// without an owner are errors (the protocol above must packetize to the MTU,
// out of pooled memory).
//
//lint:noalloc a packet is a slot of the link's queue; the link cache only grows on first contact
func (ep *Endpoint) SendPacket(dst types.NID, hdr, payload []byte, owner *bufpool.Buf) error {
	switch size := len(hdr) + len(payload); {
	case size > ep.net.cfg.MTU:
		//lint:ignore noalloc oversized packet: a caller bug, reported loudly off the fast path
		return fmt.Errorf("simnet: packet %d exceeds MTU %d", size, ep.net.cfg.MTU)
	case len(hdr) > MaxHeader:
		return errHeader
	case len(payload) > 0 && owner == nil:
		return errNoOwner
	}
	if ep.closed.Load() {
		return types.ErrClosed
	}
	l, ok := ep.links.Get(dst)
	if !ok {
		var err error
		if l, err = ep.net.linkFrom(ep, dst); err != nil {
			return err
		}
	}
	ep.net.stats.Sent.Add(1)
	l.enqueue(hdr, payload, owner)
	return nil
}

// linkFrom finds or builds the link from ep's node to dst and caches it on
// ep: the slow path of a node's first packet to a destination. A link
// outlives its endpoint, so a re-attached node sends down the same pipe.
func (n *Network) linkFrom(ep *Endpoint, dst types.NID) (*link, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, types.ErrClosed
	}
	key := linkKey{src: ep.nid, dst: dst}
	l, ok := n.links[key]
	if !ok {
		l = newLink(n, ep.nid, dst)
		//lint:ignore noalloc the first packet between a pair registers its link; steady state finds it
		n.links[key] = l
	}
	ep.links.Set(dst, l)
	return l, nil
}

// node is the endpoint attached as nid, nil if none or on its way out.
func (n *Network) node(nid types.NID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep := n.nodes[nid]; ep != nil && !ep.closed.Load() {
		return ep
	}
	return nil
}
