package rtscts

import (
	"encoding/binary"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/transport"
	"repro/internal/types"
)

// peerReceiver holds the in-order reception state for one source: the
// expected sequence number and the message being reassembled. All packets
// from one source arrive on one goroutine (PacketHandler), so mu is only
// ever contended by Close and by another feeder's flush.
type peerReceiver struct {
	src types.NID

	mu       sync.Mutex
	expected uint64 //lint:guardedby mu
	closed   bool   //lint:guardedby mu

	// ackDue: packets were accepted in sequence since the last ack went
	// out; the flush that ends the burst owes the source one cumulative ack.
	ackDue bool //lint:guardedby mu

	// mending counts down the in-sequence packets still to be acknowledged
	// one by one after the stream last showed a gap (see ackRunAfterGap).
	mending int //lint:guardedby mu

	// granted is the length announced by the RTS this receiver last
	// answered; the message that claims exactly that length gets its whole
	// buffer up front.
	granted uint64 //lint:guardedby mu

	// Reassembly in place. Fragments of one message are contiguous on the
	// stream (the sender serializes them), so one open message suffices:
	// asm is its delivery buffer (nil: no message open), asmOff the bytes
	// received so far — the offset the next fragment is copied to.
	asm      *bufpool.Buf //lint:guardedby mu
	asmTotal int          //lint:guardedby mu
	asmOff   int          //lint:guardedby mu

	ackHdr [pktHeaderSize]byte //lint:guardedby mu  scratch for the outgoing ack
}

// ackRunAfterGap is how many in-sequence packets are acknowledged
// individually after a packet was discarded out of order or as a
// duplicate: a default window's worth. A gap is evidence of loss, and loss
// is what shrinks the peer's window until it is the window, not the
// fabric, that paces the stream. A sender in that state has nothing in
// flight behind the burst it is waiting on, so losing the burst's one ack
// costs it a whole retransmission timeout, where losing one of several
// per-packet acks costs nothing: the next one covers it. On a stream that
// shows no gaps the rule never applies.
const ackRunAfterGap = 64

// What one accepted fragment completed.
const (
	doneNothing uint8 = iota
	doneApp           // the open application message is whole
	doneRTS           // a rendezvous announcement: grant it
	doneCTS           // a rendezvous grant for our sender
)

// accept feeds one in-sequence fragment to reassembly. ok is false when the
// fragment's framing is impossible and it was discarded; every length in
// it is the peer's word, so nothing is allocated on that word alone: the
// whole buffer only for a length this receiver granted or one within the
// eager limit, growth with the bytes that actually arrive otherwise, and
// nothing at all above MaxMessage. Called with mu held.
//
//lint:requires mu
func (r *peerReceiver) accept(eagerMax int, flags uint8, aux uint64, payload []byte) (done uint8, ok bool) {
	if flags&flagFirst == 0 {
		if r.asm == nil {
			return doneNothing, false // continuation of a message that was never opened
		}
		return r.fill(payload)
	}
	r.abandon() // a conforming sender finishes one message before starting the next
	switch msgKind(flags) {
	case msgApp:
		if aux > MaxMessage || uint64(len(payload)) > aux {
			return doneNothing, false
		}
		commit := int(aux)
		if aux != r.granted && commit > eagerMax {
			commit = max(eagerMax, len(payload))
		}
		r.granted = 0
		r.asm, r.asmTotal, r.asmOff = bufpool.Get(commit), int(aux), 0
		return r.fill(payload)
	case msgRTS:
		if aux != rtsSize || len(payload) != rtsSize {
			return doneNothing, false
		}
		announced := binary.BigEndian.Uint64(payload)
		if announced > MaxMessage {
			return doneNothing, false
		}
		r.granted = announced
		return doneRTS, true
	case msgCTS:
		if aux != 0 || len(payload) != 0 {
			return doneNothing, false
		}
		return doneCTS, true
	}
	return doneNothing, false // unknown message kind
}

// fill copies one fragment to its offset in the open message's buffer,
// growing the buffer by size class when the message was opened with less
// than its claimed length. A fragment that overruns the claimed length
// discards the message. Called with mu held.
//
//lint:requires mu
func (r *peerReceiver) fill(payload []byte) (done uint8, ok bool) {
	end := r.asmOff + len(payload)
	if end > r.asmTotal {
		r.abandon()
		return doneNothing, false
	}
	room := whole(r.asm)
	if end > len(room) {
		// Only an unannounced message beyond the eager limit grows; a
		// conforming sender's buffer was sized whole when it was opened.
		grown := bufpool.Get(min(r.asmTotal, max(2*len(room), end)))
		old := room[:r.asmOff]
		room = whole(grown)
		copy(room, old)
		r.asm.Release()
		r.asm = grown
	}
	copy(room[r.asmOff:end], payload)
	r.asmOff = end
	if end == r.asmTotal {
		return doneApp, true
	}
	return doneNothing, true
}

// whole is all of b's memory, not just the length it was obtained with: a
// buffer opened short grows into its size class before it is replaced.
func whole(b *bufpool.Buf) []byte {
	room := b.Bytes()
	return room[:cap(room)]
}

// abandon discards the open message, if any. Called with mu held.
//
//lint:requires mu
func (r *peerReceiver) abandon() {
	if r.asm != nil {
		r.asm.Release()
		r.asm = nil
	}
}

// shutdown returns a half-assembled message to the pool and refuses
// whatever the fabric still delivers.
func (r *peerReceiver) shutdown() {
	r.mu.Lock()
	r.closed = true
	r.abandon()
	r.mu.Unlock()
}

// onData processes one sequenced fragment per Go-Back-N: accept exactly
// the expected sequence and discard everything else. An accepted fragment
// is not acknowledged here: it marks the receiver ack-due, and the flush
// that ends the dispatch burst sends one cumulative ack for the whole run
// (Conn.flush). Only a stream that is mending a gap has its fragments
// acked one by one, for a while (ackRunAfterGap). Duplicates and
// out-of-order packets are answered at once, with a duplicate ack that
// speeds sender recovery — three of them fire the peer's fast retransmit —
// preceded by the ack the run before them is owed, so that it is the
// duplicate that repeats. An in-sequence fragment with impossible framing
// is consumed and counted, not refused: the stream moves on, and only the
// peer's own message is lost.
//
//lint:noalloc the per-fragment receive path: one copy to the fragment's offset, and at most a mark on the ack-due list
func (c *Conn) onData(r *peerReceiver, flags uint8, seq, aux uint64, payload []byte) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if seq != r.expected {
		if seq < r.expected {
			c.stats.DupsDiscarded.Add(1)
		} else {
			c.stats.OutOfOrder.Add(1)
		}
		if r.ackDue {
			r.sendAck(c)
		}
		r.sendAck(c)
		r.mending = ackRunAfterGap
		r.mu.Unlock()
		return
	}
	r.expected++
	done, ok := r.accept(c.cfg.EagerMax, flags, aux, payload)
	if !ok {
		c.stats.BadLength.Add(1)
	}
	var msg transport.Delivery
	if done == doneApp {
		msg = transport.Delivery{Src: r.src, Msg: whole(r.asm)[:r.asmTotal], Buf: r.asm}
		r.asm = nil // ownership moves to the delivery
	}
	listed := false
	if r.mending > 0 {
		r.mending--
		r.sendAck(c)
	} else if !r.ackDue {
		r.ackDue, listed = true, true
	}
	r.mu.Unlock()
	if listed {
		// Listed after mu is dropped: flush takes ackMu, then mu.
		c.ackMu.Lock()
		//lint:ignore noalloc amortized: the list is emptied in place and stops growing at the most sources one burst has carried
		c.ackDue = append(c.ackDue, r)
		c.ackMu.Unlock()
	}

	switch done {
	case doneApp:
		c.deliver(msg)
	case doneRTS:
		// Rendezvous announcement: grant immediately. A production
		// implementation would check receive-buffer budget here; the
		// protocol cost (the extra round trip) is what we model. At most
		// one RTS per peer is outstanding (the peer's run loop waits for
		// the grant).
		if s, err := c.sender(r.src); err == nil {
			s.oweCTS()
		}
	case doneCTS:
		if s, ok := c.senders.Get(r.src); ok {
			s.grantReceived()
		}
	}
}

// sendAck transmits the stream's cumulative acknowledgment, which settles
// whatever ack the receiver owed. Acks are unsequenced, unreliable and
// header-only; a lost ack is repaired by the next one or by
// retransmission. Called with mu held: the header is built in the
// receiver's own scratch.
//
//lint:requires mu
//lint:noalloc header-only packet built in the receiver's scratch
func (r *peerReceiver) sendAck(c *Conn) {
	r.ackDue = false
	c.stats.AcksSent.Add(1)
	putHeader(&r.ackHdr, pktAck, 0, r.expected, 0)
	_ = c.ep.SendPacket(r.src, r.ackHdr[:], nil)
}
