// Package loopback is an in-process transport: messages between attached
// nodes are moved by a per-node delivery goroutine through unbounded FIFO
// queues. Delivery is reliable and in order per (source, destination) pair
// — the §4.1 service — and has no configured latency, which makes it the
// reference fabric for semantic tests.
//
// The per-node delivery goroutine (rather than running handlers on the
// sender's goroutine) matters: it keeps the receive path independent of
// every application goroutine, exactly like a NIC engine, so application-
// bypass behaviour is preserved even on this trivial fabric.
//
// The delivery goroutine is the node's transport.Handoff serving: each
// wakeup hands everything pending to the BatchHandler in a single call. A
// message is never copied: the pooled buffer the sender gave SendBuf is the
// one the handler receives.
package loopback

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/obs/metrics"
	"repro/internal/transport"
	"repro/internal/types"
)

// Stats counts fabric-level events; every field is an atomic, bumped
// without any lock beyond what the paths already hold.
type Stats struct {
	Sent      atomic.Int64 // messages accepted into a destination queue
	Delivered atomic.Int64 // messages handed to a handler
	Dropped   atomic.Int64 // messages to closed nodes, discarded
}

// Network is an in-process fabric. The zero value is not usable; call New.
type Network struct {
	stats Stats

	mu     sync.Mutex
	nodes  map[types.NID]*endpoint
	closed bool
}

// Stats exposes the fabric counters.
func (n *Network) Stats() *Stats { return &n.stats }

// RegisterMetrics exposes the fabric counters as CounterFunc views.
func (n *Network) RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	st := &n.stats
	r.CounterFunc("portals_fabric_sent_total", "messages accepted by the fabric", ls, st.Sent.Load)
	r.CounterFunc("portals_fabric_delivered_total", "messages handed to a destination handler", ls, st.Delivered.Load)
	r.CounterFunc("portals_fabric_lost_total", "messages dropped at detached nodes", ls, st.Dropped.Load)
}

// New creates an empty loopback fabric.
func New() *Network {
	return &Network{nodes: make(map[types.NID]*endpoint)}
}

type endpoint struct {
	net *Network
	nid types.NID
	out transport.Handoff // the node's queue; its Serve is the delivery goroutine
}

// Attach is AttachBatch for a borrowing handler.
func (n *Network) Attach(nid types.NID, h transport.Handler) (transport.Endpoint, error) {
	return n.AttachBatch(nid, transport.Borrow(h))
}

// AttachBatch registers a node. The handler runs on this node's delivery
// goroutine, which hands over whole dequeued batches.
func (n *Network) AttachBatch(nid types.NID, h transport.BatchHandler) (transport.Endpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("loopback: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, types.ErrClosed
	}
	if _, dup := n.nodes[nid]; dup {
		return nil, fmt.Errorf("loopback: nid %d already attached", nid)
	}
	ep := &endpoint{net: n, nid: nid}
	ep.out.Init(func(batch []transport.Delivery) {
		n.stats.Delivered.Add(int64(len(batch)))
		h(batch) // message ownership moves to the handler
	})
	n.nodes[nid] = ep
	go ep.out.Serve()
	return ep, nil
}

// Close tears down the fabric.
func (n *Network) Close() error {
	n.mu.Lock()
	eps := make([]*endpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.closed = true
	n.nodes = make(map[types.NID]*endpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.out.Close()
	}
	return nil
}

// Send copies msg once, on the sender's goroutine, and continues as SendBuf.
func (ep *endpoint) Send(dst types.NID, msg []byte) error {
	return transport.SendCopy(ep, dst, msg)
}

// SendBuf puts the sender's pooled buffer straight into dst's queue — no
// copy, no pool round trip — to come out the other side as the Delivery's
// Buf. Unknown destinations are an error so misconfigured jobs fail loudly
// in tests. Ownership of buf is the transport's from here on, error or not.
func (ep *endpoint) SendBuf(dst types.NID, buf *bufpool.Buf) error {
	ep.net.mu.Lock()
	target, ok := ep.net.nodes[dst]
	closed := ep.net.closed
	ep.net.mu.Unlock()
	if closed {
		buf.Release()
		return types.ErrClosed
	}
	if !ok {
		buf.Release()
		return fmt.Errorf("loopback: %w: nid %d", types.ErrProcessNotFound, dst)
	}
	if !target.out.Add(transport.Delivery{Src: ep.nid, Msg: buf.Bytes(), Buf: buf}) {
		ep.net.stats.Dropped.Add(1)
		return nil // messages to a detached node vanish, like any network
	}
	ep.net.stats.Sent.Add(1)
	return nil
}

func (ep *endpoint) LocalNID() types.NID { return ep.nid }

// Close detaches the node (transport.Handoff.Close: queued messages are
// dropped, and no handler runs after Close returns).
func (ep *endpoint) Close() error {
	ep.net.mu.Lock()
	if ep.net.nodes[ep.nid] == ep {
		delete(ep.net.nodes, ep.nid)
	}
	ep.net.mu.Unlock()
	ep.out.Close()
	return nil
}
