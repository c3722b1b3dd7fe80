package rtscts

import (
	"encoding/binary"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/transport"
	"repro/internal/types"
)

// peerReceiver holds the in-order reception state for one source: the
// expected sequence number, the rendezvous it is in, and the message being
// received. All packets from one source arrive on one goroutine
// (PacketHandler), so mu is only ever contended by Close, by another
// feeder's flush, and by the handler answering an announcement.
//
// A placed body is written into the handler's sink fragment by fragment with
// mu held, and the delivery engine's sink takes the lock of the memory
// descriptor it writes. What a fragment completes is handed up with mu held
// too (onData).
//
//lint:lockrank peerReceiver.mu < memDesc.owner
//lint:lockrank peerReceiver.mu < Handoff.mu
type peerReceiver struct {
	c   *Conn
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

	// resent is flagResent of the first packet the next ack covers, which
	// every ack echoes: the left edge, as TCP picks the timestamp it echoes
	// (RFC 7323 §4.3), so a burst that holds a resend and then packets sent
	// after it answers for the resend.
	resent uint8 //lint:guardedby mu

	// Where the stream stands between messages and inside one. An RTS takes
	// it from idle to asked (its announcement is with the handler; no CTS
	// yet) and the handler's answer from there to granted — or the RTS
	// straight to granted, when the handler takes no announcements
	// (Conn.announce). The
	// message of the announced length then opens a body that is treated as
	// the answer said; any other message opens a buffered body and voids the
	// rendezvous. Fragments of one message are contiguous on the stream (the
	// sender serializes them), so one open body suffices.
	phase     uint8             //lint:guardedby mu
	verdict   transport.Verdict //lint:guardedby mu  granted, body: what becomes of the message
	announced uint64            //lint:guardedby mu  asked, granted: the length the RTS gave
	token     uint64            //lint:guardedby mu  names the announcement whose answer is awaited
	sink      transport.Sink    //lint:guardedby mu  verdict Place: where the body lands

	// The open body: its length and the bytes received so far — the offset
	// of the next fragment. asm is the delivery buffer of a buffered body.
	asm      *bufpool.Buf //lint:guardedby mu
	asmTotal int          //lint:guardedby mu
	asmOff   int          //lint:guardedby mu

	// dead is a placement the fragment in hand put an end to; whoever holds
	// mu hands it up as an aborted completion before moving on.
	dead transport.Sink //lint:guardedby mu

	ackHdr [pktHeaderSize]byte //lint:guardedby mu  scratch for the outgoing ack
}

// peerReceiver.phase.
const (
	idle    uint8 = iota // between messages, no rendezvous open
	asked                // RTS in, announcement unanswered
	granted              // answered (verdict), CTS owed or out, body not begun
	body                 // a message is open (verdict says how it is kept)
)

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
	doneApp           // the open buffered message is whole
	donePlaced        // the open placed message is whole
	doneRTS           // a rendezvous announcement nobody is asked about: grant it
	doneAsked         // a rendezvous announcement for the handler to answer
	doneCTS           // a rendezvous grant for our sender
)

// accept feeds one in-sequence fragment to the stream. ok is false when the
// fragment's framing is impossible and nothing else will account for its
// loss; every length in it is the peer's word, so nothing is allocated on
// that word alone: a delivery buffer only for a length this receiver
// granted or one within the eager limit. A longer message that was never
// announced breaks the protocol — every node of a fabric shares EagerMax —
// and is swallowed, counted once. Called with mu held.
//
//lint:requires mu
func (r *peerReceiver) accept(eagerMax int, flags uint8, aux uint64, payload []byte) (done uint8, ok bool) {
	if flags&flagFirst == 0 {
		if r.phase != body {
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
		ok = true
		if r.phase != granted || aux != r.announced {
			// Not what a rendezvous promised, or ahead of its grant.
			r.void()
			r.verdict = transport.Buffer
			if aux > uint64(eagerMax) {
				r.verdict, ok = transport.Discard, false
			}
		}
		if r.verdict == transport.Buffer {
			r.asm = bufpool.Get(int(aux))
		}
		r.phase, r.asmTotal, r.asmOff = body, int(aux), 0
		done, _ = r.fill(payload) // within aux: it cannot overrun
		return done, ok
	case msgRTS:
		if aux < rtsSize || aux > rtsSize+transport.HeadSize || uint64(len(payload)) != aux {
			return doneNothing, false
		}
		announced := binary.BigEndian.Uint64(payload)
		if announced > MaxMessage || aux-rtsSize != min(announced, transport.HeadSize) {
			return doneNothing, false
		}
		r.void() // a second announcement supersedes one whose message never came
		r.verdict, r.announced = transport.Buffer, announced
		if !r.c.announce.Load() {
			r.phase = granted // nobody to ask: the answer is Buffer, and it is in
			return doneRTS, true
		}
		r.phase = asked
		r.token++
		return doneAsked, true
	case msgCTS:
		if aux != 0 || len(payload) != 0 {
			return doneNothing, false
		}
		return doneCTS, true
	}
	return doneNothing, false // unknown message kind
}

// fill takes one fragment of the open message: copied to its offset in the
// delivery buffer, written through to the sink, or dropped, as the verdict
// says. A fragment that overruns the claimed length discards the message.
// Called with mu held.
//
//lint:requires mu
func (r *peerReceiver) fill(payload []byte) (done uint8, ok bool) {
	end := r.asmOff + len(payload)
	if end > r.asmTotal {
		// Of a buffered or unwanted message only this count remains; a
		// placement is aborted, and its handler accounts for that.
		placed := r.verdict == transport.Place
		r.abandon()
		return doneNothing, placed
	}
	switch r.verdict {
	case transport.Buffer:
		copy(r.asm.Bytes()[r.asmOff:end], payload)
	case transport.Place:
		// The head went up with the announcement and is not written again.
		off := r.asmOff
		if skip := min(transport.HeadSize-off, len(payload)); skip > 0 {
			off, payload = off+skip, payload[skip:]
		}
		if len(payload) > 0 {
			r.sink.WriteAt(off, payload)
		}
	}
	r.asmOff = end
	if end < r.asmTotal {
		return doneNothing, true
	}
	r.phase = idle
	switch r.verdict {
	case transport.Buffer:
		return doneApp, true
	case transport.Place:
		return donePlaced, true
	}
	return doneNothing, true
}

// abandon discards the open message, if any: a delivery buffer goes back to
// the pool, a placement is aborted. Called with mu held.
//
//lint:requires mu
func (r *peerReceiver) abandon() {
	if r.phase != body {
		return
	}
	r.phase = idle
	if r.asm != nil {
		r.asm.Release()
		r.asm = nil
	}
	r.kill()
}

// void ends a rendezvous whose message has not begun: the answer to an
// unanswered announcement will find nothing to settle, and a sink already
// given is aborted. Called with mu held.
//
//lint:requires mu
func (r *peerReceiver) void() {
	if r.phase != asked && r.phase != granted {
		return
	}
	r.phase = idle
	r.kill()
}

// kill ends the placement the receiver holds a sink for, if it holds one:
// the sink is dead, and leaves as an aborted completion (takeDead). Called
// with mu held.
//
//lint:requires mu
func (r *peerReceiver) kill() {
	if r.sink != nil {
		r.dead, r.sink = r.sink, nil
	}
}

// Answer settles the announcement token names (transport.Rendezvous) and
// issues the CTS its sender is waiting for: clear to send means the handler
// has decided where the message goes.
func (r *peerReceiver) Answer(token uint64, v transport.Verdict, sink transport.Sink) bool {
	r.mu.Lock()
	if r.closed || r.phase != asked || r.token != token {
		r.mu.Unlock()
		return false
	}
	r.phase, r.verdict = granted, v
	if v == transport.Place {
		r.sink = sink
	}
	r.mu.Unlock()
	if v == transport.Discard {
		r.c.stats.AnnounceDiscarded.Add(1)
	}
	r.grant()
	return true
}

// grant has the CTS sent, as soon as the window toward the peer has room
// for it (peerSender.oweCTS). At most one RTS per peer is outstanding: the
// peer's stream holds its announced message, and everything behind it,
// until the grant arrives.
func (r *peerReceiver) grant() {
	if s, err := r.c.sender(r.src); err == nil {
		s.oweCTS()
	}
}

// takeDead returns the aborted completion the fragment in hand gave rise to,
// if any. Called with mu held; the caller delivers it after dropping mu.
//
//lint:requires mu
func (r *peerReceiver) takeDead() (d transport.Delivery, ok bool) {
	if r.dead == nil {
		return d, false
	}
	d, r.dead = transport.Completion(r.src, r.dead, true), nil
	return d, true
}

// shutdown returns a half-assembled message to the pool, aborts a placement
// that was waiting for its body or in the middle of it, and refuses whatever
// the fabric still delivers.
func (r *peerReceiver) shutdown() {
	r.mu.Lock()
	r.closed = true
	r.abandon()
	r.void()
	if dead, aborted := r.takeDead(); aborted {
		r.c.out.Add(dead)
	}
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
	if !r.ackDue {
		r.resent = flags & flagResent
	}
	done, ok := r.accept(c.cfg.EagerMax, flags, aux, payload)
	if !ok {
		c.stats.BadLength.Add(1)
	}
	// What the fragment completed is handed up with mu held: Close shuts
	// every receiver before it closes the hand-off, so nothing a receiver
	// hands up can reach the hand-off after Close has returned.
	if dead, aborted := r.takeDead(); aborted {
		c.out.Add(dead)
	}
	switch done {
	case doneApp:
		c.deliver(transport.Delivery{Src: r.src, Msg: r.asm.Bytes(), Buf: r.asm})
		r.asm = nil // ownership moves to the delivery
	case donePlaced:
		c.stats.Placed.Add(1)
		c.stats.PlacedBytes.Add(int64(r.asmTotal - min(r.asmTotal, transport.HeadSize)))
		c.deliver(transport.Completion(r.src, r.sink, false))
		r.sink = nil
	case doneAsked:
		head := bufpool.Get(len(payload) - rtsSize)
		copy(head.Bytes(), payload[rtsSize:])
		c.out.Add(transport.Announcement(r.src, head, int(r.announced), r, r.token)) // the CTS waits for the handler's answer
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
		// Amortized: the list is emptied in place and stops growing at the
		// most sources one burst has carried.
		c.ackDue = append(c.ackDue, r)
		c.ackMu.Unlock()
	}
	switch done {
	case doneRTS:
		r.grant()
	case doneCTS:
		if s, ok := c.senders.Get(r.src); ok {
			s.grantReceived()
		} else {
			c.stats.StrayGrants.Add(1) // we never sent there, so announced nothing
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
func (r *peerReceiver) sendAck(c *Conn) {
	r.ackDue = false
	c.stats.AcksSent.Add(1)
	putHeader(&r.ackHdr, pktAck, r.resent, r.expected, 0)
	_ = c.ep.SendPacket(r.src, r.ackHdr[:], nil, nil)
}
