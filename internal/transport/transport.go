// Package transport defines the one seam underneath a Portals network
// interface: reliable, ordered delivery of whole messages into memory the
// delivery engine owns (§4.1: "Portals provide reliable, ordered delivery
// of messages between pairs of processes"; §5.1: the data lands without the
// application's help).
//
// There is one send contract and one delivery contract, and every fabric
// implements exactly those:
//
//   - Send side, Endpoint.SendBuf: the caller hands over a message as a
//     pooled buffer holding its head and, optionally, a body lent out of the
//     sender's memory (bufpool.Buf.Lend: a put's payload, read where it is), and
//     loses both at the call. The fabric queues, fragments or writes out of
//     them and releases each when it is done with — or at once, when the
//     call fails. A body's last release completes the sender's operation
//     (its send event), and that completion may send again, on this very
//     endpoint: a fabric releases a body outside its own locks, and after
//     the message it belongs to is on its way. A fabric that must carry a
//     message in one piece joins head and body (bufpool.Join) and releases
//     the body as soon as the joined message is queued.
//   - Receive side, BatchHandler: the fabric hands up batches of Delivery,
//     each message in a pooled buffer the handler now owns, batches for one
//     endpoint serial and in per-(source, destination) order. A
//     single-message delivery is a batch of one.
//   - Shutdown, Endpoint.Close: it returns after the handler's last call,
//     and what was still queued for the handler is released before it
//     returns. Close is never called from the handler itself.
//
// Endpoint.Send (borrowed bytes in) and Network.Attach (borrowed bytes out)
// remain for callers that have no pooled buffer to give or keep, but they
// are not second implementations: every fabric defines them as SendCopy and
// Borrow over the two contracts above.
//
// How the §4.1 guarantee is obtained differs per fabric:
//
//   - loopback: in-process FIFO queues (always reliable). SendBuf moves the
//     sender's buffer into the destination queue; it comes out as the
//     Delivery's Buf — no copy at all, but for the join of a lent body.
//   - simnet + rtscts: an unreliable packet network (loss, duplication,
//     reordering, latency, bandwidth pacing) with a sliding-window RTS/CTS
//     reliability layer on top — the analogue of the Cplant Myrinet MCP +
//     RTS/CTS kernel module stack (§3). rtscts fragments out of the sent
//     buffer and the lent body, joining only an eager message, and
//     reassembles into the delivered one — or, for a message it announced
//     and the handler placed, writes each fragment through to the
//     handler's sink (Placement, below).
//   - udp: the same rtscts engine over one kernel UDP socket per node —
//     connectionless, peer state is exactly the rtscts window.
//   - tcp: kernel TCP sockets, the paper's reference implementation.
//     SendBuf writes the frame — head and body in one writev — synchronously
//     and releases; each frame is
//     read straight into the pooled buffer that is delivered, by a reader
//     that only queues it for the endpoint's delivery goroutine.
//
// Every fabric goes up to its handler through a Handoff, which keeps
// batches serial however many goroutines feed it and is where Close waits
// for the handler: rtscts's feeders flush it themselves, and loopback and
// tcp run its Serve as the endpoint's delivery goroutine.
//
// # Placement
//
// A fabric that runs a rendezvous before a long message (rtscts, so simnet
// and udp) knows that the message is coming before its bytes move, and can
// let the handler say where they should land. A handler that wants this asks
// for it once, through the Announcer its Endpoint then implements, and from
// then on receives two further forms of Delivery in the same serial,
// per-pair-ordered stream: an announcement — the head of the message, its
// total length, and the obligation to answer exactly once — and, for an
// announcement answered with a Sink, a completion when the body has landed
// in it or never will. The fabric sends its clear-to-send only when the
// answer is in, so a handler that is behind holds the peer off instead of
// filling a buffer. A handler that does not ask sees whole messages only.
//
// loopback and tcp never announce. loopback's buffer moves from sender to
// handler, so there is no copy for placement to save; tcp's reader must
// never wait for the handler (BatchHandler), and an answer is a wait.
package transport

import (
	"sync"

	"repro/internal/bufpool"
	"repro/internal/types"
)

// Handler is the borrowed form of delivery: it is invoked with each
// complete message, and msg is valid only during the call. Networks run it
// through Borrow; it sees the same stream a BatchHandler would.
type Handler func(src types.NID, msg []byte)

// Endpoint is a node's attachment to a network.
type Endpoint interface {
	// SendBuf delivers a wire message — head.Bytes() followed by body's
	// bytes, body nil for none — to the node dst, taking ownership of both
	// buffers whether it returns an error or not: implementations release
	// them or forward head as a Delivery's Buf on every path, and callers
	// must not touch them after the call (each test binary checks at exit
	// that every buffer came back, docs/LINT.md). body is released outside
	// the fabric's locks and after the message is queued or written: its
	// last release may send again through this endpoint. SendBuf may block
	// for pacing or flow control but returns once the message is accepted
	// for reliable delivery, and is safe for concurrent use.
	SendBuf(dst types.NID, head, body *bufpool.Buf) error
	// Send is SendBuf for a caller that keeps its bytes: msg is copied
	// once and may be reused as soon as Send returns (SendCopy).
	Send(dst types.NID, msg []byte) error
	// LocalNID reports the attached node id.
	LocalNID() types.NID
	// Close detaches from the network; in-flight messages may be lost.
	// When it returns the endpoint's handler is not running and will not
	// be called again. It must not be called from that handler.
	Close() error
}

// SendCopy is every fabric's Endpoint.Send: copy msg into a pooled buffer
// on the caller's goroutine, then SendBuf.
func SendCopy(ep Endpoint, dst types.NID, msg []byte) error {
	buf := bufpool.Get(len(msg))
	copy(buf.Bytes(), msg)
	return ep.SendBuf(dst, buf, nil)
}

// Network is a fabric nodes attach to.
type Network interface {
	// AttachBatch registers a node and the handler its messages are
	// delivered to. Attaching an already-attached NID fails. Handlers run
	// on the network's delivery goroutines — the "NIC engine" — never on
	// an application goroutine; this is where application bypass comes
	// from.
	AttachBatch(nid types.NID, h BatchHandler) (Endpoint, error)
	// Attach is AttachBatch for a handler that only borrows each message
	// (Borrow).
	Attach(nid types.NID, h Handler) (Endpoint, error)
	// Close tears down the fabric and all endpoints.
	Close() error
}

// Delivery is one delivered message. Ownership of Msg and its pooled
// backing Buf transfers to the BatchHandler: the transport neither reuses
// nor retains them after handing the batch over, so consumers can queue
// messages onward — e.g. onto a delivery lane — without copying. Whoever
// finishes with the message calls Release exactly once.
//
// A handler that asked for placement (Announcer) also receives, in stream
// order with everything else from Src:
//
//   - an announcement, Total != 0: a message of Total bytes is waiting to be
//     sent, and Msg is its head, the first min(Total, HeadSize) bytes. The
//     handler owes one answer: Place, Discard, or — by releasing the
//     announcement unanswered — delivery of the whole message as if it had
//     never been announced;
//   - a completion, Sink != nil: the message placed into Sink is whole, or,
//     with Aborted set, will never be. A handler that settles the sink itself
//     takes it (sets Sink to nil); Release aborts a sink nobody took.
//
// So no path that merely releases what it cannot handle — a closing node, a
// closed Handoff, a message for nobody — leaves a peer waiting for an
// answer or a sink waiting for its end.
type Delivery struct {
	Src types.NID
	Msg []byte
	Buf *bufpool.Buf // pooled backing of Msg

	Total   int  // announcement: length of the whole message
	Sink    Sink // completion: what the announcement was answered with
	Aborted bool // completion: the body did not arrive whole

	rdv   Rendezvous // announcement: the fabric side, until the answer is given
	token uint64
}

// HeadSize is how much of an announced message the announcement carries: a
// message's first HeadSize bytes (all of a shorter one). It is sized for the
// header a handler must see to know where the rest belongs.
const HeadSize = 80

// Sink is a handler's answer to an announcement: where the message is to
// land. The fabric calls WriteAt serially, in ascending offsets, and then
// reports the end through a completion — or, if that is never handled,
// through Abort.
type Sink interface {
	// WriteAt stores p, the bytes of the message from offset off. The head
	// is not written again: off is never below the length of the
	// announcement's Msg. p is the fabric's and only valid during the call.
	WriteAt(off int, p []byte)
	// Abort ends a placement whose completion no handler took.
	Abort()
}

// Verdict is the answer to an announcement.
type Verdict uint8

const (
	Buffer  Verdict = iota // deliver the message whole, in a pooled buffer
	Place                  // write the body into a Sink, then deliver a completion
	Discard                // swallow the message as it arrives
)

// Rendezvous is the fabric's side of one endpoint's announcements. Answer
// settles the announcement token names and reports false when that
// announcement is no longer open — the peer broke the protocol, or the
// endpoint closed — in which case a Sink offered with Place was not taken.
type Rendezvous interface {
	Answer(token uint64, v Verdict, sink Sink) bool
}

// Announcer is implemented by the endpoints of fabrics that can announce.
// Announce asks for the placement forms of Delivery from now on; the
// endpoint's handler must be ready for them when it is called.
type Announcer interface {
	Announce()
}

// Announcement builds the announcement of a total-byte message whose first
// bytes are in head, which the Delivery takes; r.Answer(token, …) will be
// called exactly once.
func Announcement(src types.NID, head *bufpool.Buf, total int, r Rendezvous, token uint64) Delivery {
	return Delivery{Src: src, Msg: head.Bytes(), Buf: head, Total: total, rdv: r, token: token}
}

// Completion builds the completion of the placement into sink.
func Completion(src types.NID, sink Sink, aborted bool) Delivery {
	return Delivery{Src: src, Sink: sink, Aborted: aborted}
}

// Place answers an announcement: the fabric is to write the message into
// sink and then deliver a completion carrying it. False means the
// announcement was void and sink was not taken; nothing will be written.
func (d *Delivery) Place(sink Sink) bool { return d.answer(Place, sink) }

// Discard answers an announcement: the message is unwanted, and the fabric
// is to drop its bytes as they arrive.
func (d *Delivery) Discard() { d.answer(Discard, nil) }

func (d *Delivery) answer(v Verdict, sink Sink) bool {
	r := d.rdv
	d.rdv = nil
	return r != nil && r.Answer(d.token, v, sink)
}

// Release returns the message's pooled buffer; Msg is invalid afterwards.
// An announcement still unanswered is answered Buffer, and a completion's
// sink, if nobody took it, is aborted.
func (d *Delivery) Release() {
	if d.rdv != nil {
		d.answer(Buffer, nil)
	}
	if d.Sink != nil {
		d.Sink.Abort()
		d.Sink = nil
	}
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
// handler may keep per-endpoint scratch without a lock — and in
// per-(source, destination) FIFO order.
//
// A handler may block on SendBuf (the engine acks and replies from inside
// it), and SendBuf may be waiting for the peer to read. So a fabric must
// keep draining its wire while its handler is blocked: whatever goroutine
// takes bytes off the wire either never runs the handler (loopback, tcp:
// a delivery goroutine does) or sends through a SendBuf that never blocks
// (rtscts queues). A fabric that reads and delivers on one goroutine over
// a blocking SendBuf deadlocks under symmetric bulk traffic.
type BatchHandler func(batch []Delivery)

// Borrow is every fabric's Network.Attach: it adapts a Handler to the
// delivery contract by calling it on each message and then releasing the
// message. A nil Handler gives a nil BatchHandler, which AttachBatch
// refuses.
func Borrow(h Handler) BatchHandler {
	if h == nil {
		return nil
	}
	return func(batch []Delivery) {
		for i := range batch {
			h(batch[i].Src, batch[i].Msg)
			batch[i].Release()
		}
	}
}

// Handoff is every fabric's way up to its BatchHandler. Feeders Add
// completed messages; the handler is run either by Flush — whichever feeder
// finds it idle runs it until nothing is pending, while the others leave
// their messages and go back to their sources — or by Serve, a delivery
// goroutine for feeders that only Add. A Handoff is flushed or served, not
// both. Per-feeder order is preserved and no lock is held across the
// handler. No feeder waits for the handler, so what can pile up in pending
// is bounded only by what the feeders' sources admit: the rtscts window;
// for loopback and tcp nothing but the peers' send rate.
type Handoff struct {
	h BatchHandler

	mu       sync.Mutex
	cond     sync.Cond  // on mu: Serve waits for pending, Close for the handler call to end
	pending  []Delivery //lint:guardedby mu
	spare    []Delivery //lint:guardedby mu  recycled batch backing
	flushing bool       //lint:guardedby mu  a handler call is in progress
	closed   bool       //lint:guardedby mu
}

// Init sets the handler. Call it before the first Add.
func (q *Handoff) Init(h BatchHandler) {
	q.h = h
	q.cond.L = &q.mu
}

// Add queues one message for the handler. After Close the message is
// released instead and Add reports false.
func (q *Handoff) Add(d Delivery) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		d.Release()
		return false
	}
	// Amortized: pending and spare swap between two backings that stop
	// growing at the largest batch.
	q.pending = append(q.pending, d)
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// Flush hands everything pending to the handler, unless another feeder is
// already inside it — that feeder will.
func (q *Handoff) Flush() { q.deliver(false) }

// Serve is the delivery goroutine: it hands pending messages to the handler
// as they come, and returns once Close has been called.
func (q *Handoff) Serve() { q.deliver(true) }

// deliver runs the handler until nothing is pending — and, serving, waits
// for more. mu is held from the wait through the swap of pending, so a batch
// costs one lock round trip besides the wait's.
func (q *Handoff) deliver(serve bool) {
	q.mu.Lock()
	if q.flushing {
		q.mu.Unlock()
		return
	}
	for !q.closed {
		if len(q.pending) == 0 {
			if !serve {
				break
			}
			q.cond.Wait()
			continue
		}
		batch := q.pending
		q.pending = q.spare[:0]
		q.flushing = true
		q.mu.Unlock()
		q.h(batch)
		clear(batch) // drop refs so the backing array pins nothing
		q.mu.Lock()
		q.spare = batch
		q.flushing = false
	}
	if q.closed {
		q.cond.Broadcast() // Close may be waiting for the call that just ended
	}
	q.mu.Unlock()
}

// Close makes later Adds release their message, waits for a handler call in
// progress to return, and releases what was queued but never handed up. No
// handler call starts afterwards, so once Close returns nothing of the
// handler is running. It must not be called from the handler itself.
func (q *Handoff) Close() {
	q.mu.Lock()
	q.closed = true
	left := q.pending
	q.pending = nil
	q.cond.Broadcast() // Serve returns
	for q.flushing {
		q.cond.Wait()
	}
	q.mu.Unlock()
	for i := range left {
		left[i].Release()
	}
}
