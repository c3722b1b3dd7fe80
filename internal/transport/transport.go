// Package transport defines the message-delivery abstraction underneath a
// Portals network interface.
//
// A Network connects nodes identified by NID. Attaching to a NID yields an
// Endpoint whose Send delivers a complete message to another node,
// reliably and in order per (source, destination) pair — the service the
// Portals semantics assume (§4.1: "Portals provide reliable, ordered
// delivery of messages between pairs of processes"). How that guarantee is
// obtained differs per implementation:
//
//   - loopback: in-process FIFO queues (always reliable).
//   - simnet + rtscts: an unreliable packet network (loss, duplication,
//     reordering, latency, bandwidth pacing) with a sliding-window
//     RTS/CTS reliability layer on top — the analogue of the Cplant
//     Myrinet MCP + RTS/CTS kernel module stack (§3).
//   - tcp: real kernel TCP sockets, the paper's reference implementation.
package transport

import (
	"repro/internal/bufpool"
	"repro/internal/types"
)

// Handler is invoked by the network with each complete message delivered
// to the local node. src is the sending node. The callee must not retain
// msg after returning unless it copies it. Handlers run on the network's
// delivery goroutine — the "NIC engine" — never on an application
// goroutine; this is where application bypass comes from.
type Handler func(src types.NID, msg []byte)

// Endpoint is a node's attachment to a network.
type Endpoint interface {
	// Send delivers msg to the node dst. It may block for pacing or flow
	// control but returns once the message is accepted for reliable
	// delivery (local completion). Send is safe for concurrent use.
	//
	// The implementation must not retain msg after Send returns: the
	// caller may immediately reuse the buffer (the delivery engine
	// recycles pooled ack/reply buffers this way — docs/PERF.md). Every
	// in-tree transport either copies once into a pooled buffer and
	// continues as SendBuf (loopback; rtscts over simnet or udp) or writes
	// synchronously before returning (tcp). A caller that already holds
	// the message in a pooled buffer skips that copy with BufSender.
	Send(dst types.NID, msg []byte) error
	// LocalNID reports the attached node id.
	LocalNID() types.NID
	// Close detaches from the network; in-flight messages may be lost.
	Close() error
}

// BufSender is an optional Endpoint fast path for pooled messages: SendBuf
// delivers buf.Bytes() — a complete wire message — to dst, taking ownership
// of the buffer. The transport releases it (or forwards it as a Delivery's
// Buf) once the message is done with; the caller must not touch or Release
// the buffer after the call, whether it returns an error or not. This is
// what lets an in-process fabric move a message from initiator to delivery
// engine with zero copies, and a packet fabric fragment it in place: rtscts
// keeps the buffer until the last fragment is acknowledged, retransmitting
// out of it, and a failed SendBuf has already released it
// (docs/PERF.md §6).
type BufSender interface {
	// SendBuf consumes buf: implementations must release it or forward it
	// as a Delivery's Buf on every path, and callers lose ownership at the
	// call — both sides of the contract are machine-checked (docs/LINT.md).
	//
	//lint:consumes buf
	SendBuf(dst types.NID, buf *bufpool.Buf) error
}

// Network is a fabric nodes attach to.
type Network interface {
	// Attach registers a node and its delivery handler. Attaching an
	// already-attached NID fails.
	Attach(nid types.NID, h Handler) (Endpoint, error)
	// Close tears down the fabric and all endpoints.
	Close() error
}

// Delivery is one message of a batched delivery. Unlike Handler's msg,
// ownership of Msg (and its pooled backing Buf, when non-nil) transfers to
// the BatchHandler: the transport neither reuses nor retains them after
// handing the batch over, so batch consumers can queue messages onward —
// e.g. onto a delivery lane — without copying. Whoever finishes with the
// message calls Release exactly once.
type Delivery struct {
	Src types.NID
	Msg []byte
	Buf *bufpool.Buf // pooled backing of Msg; nil when Msg is plainly allocated
}

// Release returns the message's pooled buffer, if any. Msg is invalid
// afterwards.
func (d *Delivery) Release() {
	if d.Buf != nil {
		d.Buf.Release()
		d.Buf = nil
	}
	d.Msg = nil
}

// BatchHandler consumes one batch of delivered messages. The slice itself
// is valid only during the call (the transport reuses it), but each
// Delivery's message is owned by the handler — see Delivery. Batches for
// one endpoint are delivered serially — never two calls at once, so a
// handler may keep per-endpoint scratch without a lock — and in order, so
// a BatchHandler sees the same per-(source, destination) FIFO stream a
// Handler would. A transport fed by several goroutines (simnet feeds an
// rtscts endpoint from one goroutine per source link) serialises the
// hand-off itself: whichever feeder finds the handler busy leaves its
// messages for the one inside it, and no lock is held across the call.
//
//lint:consumes batch
type BatchHandler func(batch []Delivery)

// BatchNetwork is implemented by networks that deliver owned messages
// (loopback, rtscts over simnet, udp): the handler keeps each message's
// buffer instead of copying out of a borrowed one, and a delivery goroutine
// that dequeues several messages per queue operation hands them over in a
// single call, amortizing per-message wakeups and handoffs (docs/PERF.md).
type BatchNetwork interface {
	Network
	// AttachBatch is Attach with a batch handler.
	AttachBatch(nid types.NID, h BatchHandler) (Endpoint, error)
}
