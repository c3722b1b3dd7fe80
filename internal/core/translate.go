package core

import (
	"repro/internal/bufpool"
	"repro/internal/eventq"
	"repro/internal/obs/trace"
	"repro/internal/types"
	"repro/internal/wire"
)

// Outbound is a fully-encoded protocol message the delivery engine must
// transmit on behalf of this process (an acknowledgment or a reply —
// §4.3's "activities attributed to a process may ... be performed ... on
// behalf of the process", i.e. application bypass).
type Outbound struct {
	Dst types.ProcessID
	Msg []byte

	buf *bufpool.Buf // pooled backing for Msg; nil when Msg is plainly allocated
}

// Recycle returns the message's pooled buffer, if any; it is a no-op for
// plainly-allocated messages. Call it exactly once, after the transport's
// Send has returned (transports must not retain msg past Send — see
// internal/transport). Msg is invalid afterwards.
func (o *Outbound) Recycle() {
	if o.buf != nil {
		o.buf.Release()
		o.buf = nil
		o.Msg = nil
	}
}

// TakeBuf transfers ownership of the message's pooled buffer to the
// caller. Every Outbound the core builds has one; only a zero or
// hand-assembled value yields nil. Afterwards Recycle is a no-op and the
// new owner releases the buffer — this is how a delivery engine hands a
// message to transport.Endpoint.SendBuf without a copy.
//
//lint:returns-owned
func (o *Outbound) TakeBuf() *bufpool.Buf {
	b := o.buf
	o.buf = nil
	return b
}

// HandleIncoming processes one incoming message per the §4.8 receive rules
// and returns any protocol responses to transmit. It is called by the
// interface's delivery engine, never by the application; everything here
// happens regardless of what the application goroutines are doing.
//
// The payload slice is only read during the call; data is copied directly
// into the matched descriptor's user memory (the single copy that stands
// in for the DMA on the Puma/Myrinet hardware).
func (s *State) HandleIncoming(h *wire.Header, payload []byte) []Outbound {
	return s.HandleIncomingInto(h, payload, nil)
}

// HandleIncomingInto is HandleIncoming appending into a caller-provided
// slice, so a delivery engine that reuses its scratch slice (and Recycles
// each Outbound after transmission) processes messages without allocating.
//
//lint:noalloc the steady-state delivery path (TestRecvPutSteadyStateAllocs)
func (s *State) HandleIncomingInto(h *wire.Header, payload []byte, out []Outbound) []Outbound {
	switch h.Op {
	case wire.OpPut:
		out = s.recvPut(h, payload, out)
	case wire.OpGet:
		out = s.recvGet(h, out)
	case wire.OpAck:
		s.recvAck(h)
	case wire.OpReply:
		s.recvReply(h, payload)
	default:
		// DecodeMessage rejects unknown ops; treat a stray one as a drop.
		s.counters.Drop(types.DropBadTarget)
	}
	// Any completion above may have pushed a counter across an armed
	// threshold; fire the ready triggered operations HERE, on the delivery
	// lane, after the message's locks are released — this is what makes a
	// triggered collective progress with zero host involvement (ct.go).
	return s.FireTriggered(out)
}

// accept decides whether a descriptor accepts an incoming put/get request
// and computes the operation's offset and manipulated length. The §4.8
// rejection reasons: "the memory descriptor has not been enabled for the
// incoming operation; or, the length specified in the request is too long
// ... and the truncate option has not been enabled."
//
//lint:requires memDesc.owner/portal.mu
func accept(d *memDesc, h *wire.Header, want types.MDOptions) (offset, mlength uint64, ok bool) {
	if !d.active() {
		return 0, 0, false
	}
	if d.md.Options&want == 0 {
		return 0, 0, false
	}
	if d.md.Options&types.MDManageRemote != 0 {
		offset = h.Offset
	} else {
		offset = d.localOffset
	}
	size := d.view.size()
	var avail uint64
	if offset < size {
		avail = size - offset
	}
	if h.RLength <= avail {
		return offset, h.RLength, true
	}
	if d.md.Options&types.MDTruncate != 0 {
		return offset, avail, true
	}
	return 0, 0, false
}

// translate performs the Figure 4 walk using the portal's match index
// (index.go): the exact bucket for (matchBits, initiator), the
// wildcard-initiator bucket for matchBits, and the residual list are
// merged in seq order, so the first entry whose criteria match AND whose
// first memory descriptor accepts the request is found exactly as a linear
// walk would find it — but exact-match traffic resolves in O(1).
// Caller holds p.mu.
//
//lint:requires portal.mu
//lint:noalloc address translation runs per message under the portal lock
func (s *State) translate(p *portal, h *wire.Header, want types.MDOptions) (*memDesc, uint64, uint64, types.DropReason) {
	if ok, reason := s.acl.Check(h.Cookie, h.Initiator, h.PtlIndex); !ok {
		return nil, 0, 0, reason
	}
	ex := p.exact[exactKey{h.MatchBits, h.Initiator.NID, h.Initiator.PID}]
	any := p.anyInit[h.MatchBits]
	res := p.residual
	var i, j, k, steps int
	for {
		var cand *matchEntry
		src := idxResidual
		if i < len(ex) {
			cand, src = ex[i], idxExact
		}
		if j < len(any) && (cand == nil || any[j].seq < cand.seq) {
			cand, src = any[j], idxAnyInit
		}
		if k < len(res) && (cand == nil || res[k].seq < cand.seq) {
			cand, src = res[k], idxResidual
		}
		if cand == nil {
			break
		}
		switch src {
		case idxExact:
			i++
		case idxAnyInit:
			j++
		default:
			k++
		}
		steps++
		// Hash-bucket candidates satisfy the Figure 3 criteria by
		// construction; residual entries still need the full check.
		if src == idxResidual && !cand.matches(h.Initiator, h.MatchBits) {
			continue
		}
		// "While the match list is searched for a matching entry, only the
		// first element in the memory descriptor list is considered."
		if len(cand.mds) == 0 {
			continue
		}
		d := cand.mds[0]
		if offset, mlength, ok := accept(d, h, want); ok {
			s.counters.MatchWalk(steps, src != idxResidual)
			p.walkSteps = steps
			return d, offset, mlength, types.DropNone
		}
	}
	s.counters.MatchWalk(steps, false)
	p.walkSteps = steps
	return nil, 0, 0, types.DropNoMatch
}

// finishOperation applies the post-acceptance steps of Figure 4 in order:
// consume the threshold, advance a locally-managed offset, log the event,
// and unlink the descriptor (cascading to the match entry) if it is spent.
// Caller holds the portal lock that owns d.
//
//lint:requires memDesc.owner/portal.mu
func (s *State) finishOperation(d *memDesc, evType types.EventType, h *wire.Header, offset, mlength uint64) {
	d.consume()
	if d.md.Options&types.MDManageRemote == 0 {
		d.localOffset = offset + mlength
	}
	if q := s.eqFor(d.md.EQ); q != nil {
		q.Post(eventq.Event{
			Type:      evType,
			Initiator: h.Initiator,
			PtlIndex:  h.PtlIndex,
			MatchBits: h.MatchBits,
			RLength:   h.RLength,
			MLength:   mlength,
			Offset:    offset,
			MD:        d.handle,
			UserPtr:   d.md.UserPtr,
			MsgSeq:    uint64(h.Seq),
		})
	}
	// Counting events (ct.go): the delivery counts on the descriptor's
	// counter when the matching MDCT* bit is set. This runs strictly after
	// the payload landed (recvPut/recvGet call finishOperation after the
	// copy), so an operation triggered by the crossing can already read the
	// delivered data — the ordering triggered broadcast forwarding needs.
	want := types.MDCTPut
	if evType == types.EventGet {
		want = types.MDCTGet
	}
	s.ctIncMD(d.md.CT, d.md.Options, want, mlength)
	s.unlinkIfSpent(d)
}

// match is the front of a put or get: the Figure 4 walk for h over its
// portal, bracketed for the flight recorder. Caller holds p.mu.
//
//lint:requires portal.mu
func (s *State) match(p *portal, h *wire.Header, want types.MDOptions) (*memDesc, uint64, uint64, types.DropReason) {
	// One hoisted Enabled check per message keeps the disabled-tracer cost
	// on this path to a single predicted branch.
	traced := trace.Enabled()
	if traced {
		trace.Record(trace.StageMatchStart,
			uint32(h.Initiator.NID), uint32(h.Initiator.PID), uint64(h.Seq), 0)
	}
	d, offset, mlength, reason := s.translate(p, h, want)
	if traced {
		trace.Record(trace.StageMatchDone,
			uint32(h.Initiator.NID), uint32(h.Initiator.PID), uint64(h.Seq), uint64(p.walkSteps))
	}
	return d, offset, mlength, reason
}

// commitPut is the tail of a put whose mlength bytes are in place at
// offset: deliver record, receive count, and the Figure 4 steps after
// acceptance. It reports whether an acknowledgment is owed. Caller holds
// the lock that owns d.
//
//lint:requires memDesc.owner/portal.mu
func (s *State) commitPut(d *memDesc, h *wire.Header, offset, mlength uint64) (ackWanted bool) {
	trace.Record(trace.StageDeliver,
		uint32(h.Initiator.NID), uint32(h.Initiator.PID), uint64(h.Seq), mlength)
	s.counters.Recv(int(mlength))
	ackWanted = h.AckRequested() && d.md.Options&types.MDAckDisable == 0
	s.finishOperation(d, types.EventPut, h, offset, mlength)
	return ackWanted
}

// ackPut appends the acknowledgment of a put to out.
func (s *State) ackPut(h *wire.Header, mlength uint64, out []Outbound) []Outbound {
	ack := wire.AckFor(h, mlength)
	b := bufpool.Get(wire.HeaderSize)
	s.counters.Pool(b.Reused())
	wire.EncodeMessageInto(b.Bytes(), &ack, nil)
	s.counters.Ack()
	//lint:ignore noalloc amortized append into the caller's reusable scratch; steady state has capacity (TestRecvPutSteadyStateAllocs)
	return append(out, Outbound{Dst: ack.Target, Msg: b.Bytes(), buf: b})
}

// recvPut is resolve, write and commit under one hold of the portal lock;
// an announced put does the same three steps with the lock dropped in
// between (place.go).
func (s *State) recvPut(h *wire.Header, payload []byte, out []Outbound) []Outbound {
	if int(h.PtlIndex) >= len(s.table) {
		s.counters.Drop(types.DropBadPortal)
		return out
	}
	p := &s.table[h.PtlIndex]
	p.mu.Lock()
	d, offset, mlength, reason := s.match(p, h, types.MDOpPut)
	if reason != types.DropNone {
		p.mu.Unlock()
		s.counters.Drop(reason)
		return out
	}
	if d.md.Options&types.MDAccumulate != 0 {
		// NIC-side reduction (docs/PROTOCOL.md "Counting events"): the
		// payload combines into the region instead of overwriting it, under
		// the same portal lock every delivery into this descriptor takes —
		// concurrent contributions serialize here, which is what lets a
		// triggered allreduce sum children's vectors with no host code.
		d.view.accumulateF64(offset, payload[:mlength])
	} else {
		d.view.writeAt(offset, payload[:mlength])
	}
	ackWanted := s.commitPut(d, h, offset, mlength)
	p.mu.Unlock()

	if ackWanted {
		out = s.ackPut(h, mlength, out)
	}
	return out
}

func (s *State) recvGet(h *wire.Header, out []Outbound) []Outbound {
	if int(h.PtlIndex) >= len(s.table) {
		s.counters.Drop(types.DropBadPortal)
		return out
	}
	p := &s.table[h.PtlIndex]
	p.mu.Lock()
	d, offset, mlength, reason := s.match(p, h, types.MDOpGet)
	if reason != types.DropNone {
		p.mu.Unlock()
		s.counters.Drop(reason)
		return out
	}
	// Encode while holding the portal lock so the data cannot be
	// concurrently unlinked/reused between read and transmit (the hardware
	// analogue is the NIC DMA-reading the region before completing the
	// operation). The reply is gathered straight into a pooled buffer.
	reply := wire.ReplyFor(h, mlength)
	b := bufpool.Get(wire.HeaderSize + int(mlength))
	s.counters.Pool(b.Reused())
	n := reply.Encode(b.Bytes())
	d.view.readInto(b.Bytes()[n:], offset)
	trace.Record(trace.StageDeliver,
		uint32(h.Initiator.NID), uint32(h.Initiator.PID), uint64(h.Seq), mlength)
	s.counters.Recv(0)
	s.finishOperation(d, types.EventGet, h, offset, mlength)
	p.mu.Unlock()

	s.counters.Reply()
	//lint:ignore noalloc amortized append into the caller's reusable scratch, as on the ack path
	return append(out, Outbound{Dst: reply.Target, Msg: b.Bytes(), buf: b})
}

// recvAck implements §4.8: "upon receipt of an acknowledgment, the runtime
// system only needs to confirm that the event queue still exists. Should
// the event queue no longer exist, the message is simply discarded and the
// dropped message count for the interface is incremented." A descriptor
// counting acks (MDCTAck) extends the rule: the counter increment happens
// even without an event queue — counting events are the EQ-free completion
// channel triggered chains are built from — and only the EVENT is subject
// to the queue-existence check.
func (s *State) recvAck(h *wire.Header) {
	// Bridge from the lock-free handle lookup to the descriptor's owner
	// lock (docs/PERF.md §7): the pins window keeps the record from being
	// recycled until unlinked has been re-checked under the lock.
	pin := s.pins.Enter(uint64(h.Initiator.NID))
	d, ok := s.lookupMD(h.MD)
	if !ok {
		s.pins.Exit(pin)
		s.counters.Drop(types.DropEQGone)
		return
	}
	d.owner.Lock()
	defer d.owner.Unlock()
	gone := d.unlinked
	s.pins.Exit(pin)
	if gone {
		s.counters.Drop(types.DropEQGone)
		return
	}
	countsCT := d.md.Options&types.MDCTAck != 0 && d.md.CT.IsValid()
	q := s.eqFor(d.md.EQ)
	if q == nil && !countsCT {
		s.counters.Drop(types.DropEQGone)
		return
	}
	// The ack closes the span this process opened at StartPut: key by
	// (self, seq), not by the ack header's (swapped) initiator.
	trace.Record(trace.StageAck,
		uint32(s.self.NID), uint32(s.self.PID), uint64(h.Seq), h.MLength)
	if q != nil {
		q.Post(eventq.Event{
			Type:      types.EventAck,
			Initiator: h.Initiator,
			PtlIndex:  h.PtlIndex,
			MatchBits: h.MatchBits,
			RLength:   h.RLength,
			MLength:   h.MLength,
			Offset:    h.Offset,
			MD:        d.handle,
			UserPtr:   d.md.UserPtr,
			MsgSeq:    uint64(h.Seq),
		})
	}
	s.ctIncMD(d.md.CT, d.md.Options, types.MDCTAck, h.MLength)
	// An acknowledgment is an operation on the descriptor: it consumes
	// threshold. A put that requests an ack therefore needs threshold 2
	// (send + ack) on its descriptor to survive until the ack lands.
	d.consume()
	s.unlinkIfSpent(d)
}

// recvReply implements §4.8: "a reply message will be dropped if the
// memory descriptor identified in the request doesn't exist or if the
// event queue in the memory descriptor has no space and is not null. ...
// Every memory descriptor accepts and truncates incoming reply messages."
//
// The space check and the event post are one atomic reservation
// (eventq.ReserveIfSpace). A HasSpace-then-Post pair has a TOCTOU window:
// two delivery lanes replying into the last event slot could both pass
// HasSpace and then overwrite each other's event — the §4.8 rule says the
// *reply* is dropped when the queue is full, never an already-posted
// event.
//
// Like recvPut it is resolve, write and commit under one hold of the owner
// lock, and an announced reply does the three with the lock dropped in
// between (place.go). The queue is judged at commit, after the write: a
// reply dropped for a full queue has left its bytes in the descriptor.
func (s *State) recvReply(h *wire.Header, payload []byte) {
	pin := s.pins.Enter(uint64(h.Initiator.NID))
	d, ok := s.lookupMD(h.MD)
	if !ok {
		s.pins.Exit(pin)
		s.counters.Drop(types.DropMDGone)
		return
	}
	d.owner.Lock()
	defer d.owner.Unlock()
	gone := d.unlinked
	s.pins.Exit(pin)
	if gone {
		s.counters.Drop(types.DropMDGone)
		return
	}
	mlength := replyLength(d, h)
	d.view.writeAt(0, payload[:mlength])
	s.commitReply(d, h, mlength)
}

// replyLength is how much of a reply d takes: "every memory descriptor
// accepts and truncates incoming reply messages".
//
//lint:requires memDesc.owner
func replyLength(d *memDesc, h *wire.Header) uint64 {
	return min(h.MLength, d.view.size())
}

// commitReply is the tail of a reply whose mlength bytes are in place: the
// get it answers is over, the event is posted if the queue has room — the
// reply counts as dropped if not — and a spent descriptor is unlinked.
// Caller holds the lock that owns d.
//
//lint:requires memDesc.owner
func (s *State) commitReply(d *memDesc, h *wire.Header, mlength uint64) {
	// The get is over once its reply has been judged, whichever way: a
	// dropped reply is not sent again, and a descriptor left pinned for it
	// could never be unlinked.
	if d.pending > 0 {
		d.pending--
	}
	var res eventq.Reservation
	room := true
	if q := s.eqFor(d.md.EQ); q != nil {
		res, room = q.ReserveIfSpace()
	}
	if room {
		// The reply closes the span opened at StartGet: key by (self, seq).
		trace.Record(trace.StageAck,
			uint32(s.self.NID), uint32(s.self.PID), uint64(h.Seq), mlength)
		s.counters.Recv(int(mlength))
		res.Publish(eventq.Event{
			Type:      types.EventReply,
			Initiator: h.Initiator,
			RLength:   h.RLength,
			MLength:   mlength,
			MD:        d.handle,
			UserPtr:   d.md.UserPtr,
		})
		// Reply data is in place: count the completion.
		s.ctIncMD(d.md.CT, d.md.Options, types.MDCTReply, mlength)
	} else {
		s.counters.Drop(types.DropEQFull)
		// Failure counting (docs/PROTOCOL.md): a reply the engine had to
		// drop is a FAILURE increment on a counting descriptor — it never
		// arms triggered operations, but a CTWait-er sees the stream went
		// wrong instead of hanging.
		if d.md.Options&types.MDCTReply != 0 {
			if c := s.ctRes(d.md.CT); c != nil {
				s.ctInc(c, 0, 1)
			}
		}
	}
	s.unlinkIfSpent(d)
}
