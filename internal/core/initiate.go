package core

import (
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/eventq"
	"repro/internal/obs/trace"
	"repro/internal/types"
	"repro/internal/wire"
)

// lookupMDOpen resolves an initiator-side descriptor handle with atomic
// loads only, failing if the state is closed. The caller must bracket the
// call in a pins window, take d.owner, and re-check d.unlinked before
// using the descriptor (docs/PERF.md §7). Errors are bare sentinels — this
// sits under startPut/startGet, which triggered operations execute on the
// delivery lanes, so even the failure paths must not allocate.
func (s *State) lookupMDOpen(md types.Handle) (*memDesc, error) {
	if s.closed.Load() {
		return nil, types.ErrClosed
	}
	d, ok := s.mds.lookup(md)
	if !ok {
		return nil, types.ErrInvalidHandle
	}
	return d, nil
}

// LendPut builds a put operation (Figure 1) the way a NIC sends one: the
// wire header in a pooled buffer, and the payload lent out of the
// descriptor's memory instead of copied (Outbound.TakeBody). The
// descriptor's entire region is sent, as PtlPut specifies. The send
// completes when the body comes back — when the fabric has read the
// region for the last time, retransmissions included: only then are the
// send event posted and the MDCTSend counter bumped, and only then may the
// region be reused. Until then the lend counts as an operation in flight:
// MDUnlink and MDUpdate answer ErrMDInUse, and an auto-unlink waits for
// the return. A 0-byte put lends nothing and completes here.
func (s *State) LendPut(md types.Handle, ack types.AckRequest, target types.ProcessID,
	ptl types.PtlIndex, cookie types.ACIndex, bits types.MatchBits, remoteOffset uint64) (Outbound, error) {
	out, err := s.startPut(md, ack, target, ptl, cookie, bits, remoteOffset)
	if err != nil {
		return Outbound{}, fmt.Errorf("%w (md %v)", err, md)
	}
	return out, nil
}

// StartPut is LendPut with the body joined to the header in one pooled
// buffer, so Msg is the whole wire message and the send has completed — its
// event posted — by the time StartPut returns. It is for a caller that
// carries the message itself, without a fabric to lend the body to.
func (s *State) StartPut(md types.Handle, ack types.AckRequest, target types.ProcessID,
	ptl types.PtlIndex, cookie types.ACIndex, bits types.MatchBits, remoteOffset uint64) (Outbound, error) {
	out, err := s.LendPut(md, ack, target, ptl, cookie, bits, remoteOffset)
	if err != nil || out.ln == nil {
		return out, err
	}
	body := out.TakeBody(nil)
	out.buf = bufpool.Join(out.buf, body)
	out.Msg = out.buf.Bytes()
	body.Release()
	return out, nil
}

// startPut is LendPut returning bare sentinel errors: it is also the body
// of a fired TriggeredPut, which runs on the delivery lanes, so the whole
// function — failure paths included — stays allocation-free.
func (s *State) startPut(md types.Handle, ack types.AckRequest, target types.ProcessID,
	ptl types.PtlIndex, cookie types.ACIndex, bits types.MatchBits, remoteOffset uint64) (Outbound, error) {

	s.pins.Enter()
	d, err := s.lookupMDOpen(md)
	if err != nil {
		s.pins.Exit()
		return Outbound{}, err
	}
	d.owner.Lock()
	defer d.owner.Unlock()
	gone := d.unlinked
	s.pins.Exit()
	if gone {
		return Outbound{}, types.ErrInvalidHandle
	}
	if !d.active() {
		return Outbound{}, types.ErrInvalidArgument
	}
	size := d.view.size()
	h := wire.NewPut(s.self, target, ptl, cookie, bits, remoteOffset, md, size, ack)
	h.Seq = s.nextSeq()
	trace.Record(trace.StageTxEnqueue,
		uint32(s.self.NID), uint32(s.self.PID), uint64(h.Seq), size)
	b := bufpool.Get(wire.HeaderSize)
	h.Encode(b.Bytes())
	s.counters.Send(int(size))
	d.consume()
	out := Outbound{Dst: target, Msg: b.Bytes(), buf: b}
	if size == 0 {
		s.sendDone(d, ptl, bits, 0, h.Seq)
		return out, nil
	}
	ln, _ := lendPool.Get().(*lend)
	if ln == nil {
		ln = new(lend)
		ln.back = ln.returned
	}
	ln.s, ln.d, ln.ptl, ln.bits, ln.size, ln.seq = s, d, ptl, bits, size, h.Seq
	d.lent++
	s.lent.Add(1)
	ln.body.Lend(d.view.flat, d.view.segments, ln.back)
	out.ln = ln
	return out, nil
}

// sendDone completes a put on its descriptor: the send event, the MDCTSend
// count — before a possible unlink, so the increment still lands for
// fire-and-forget descriptors — and Figure 4's unlink step.
//
//lint:requires memDesc.owner/portal.mu
func (s *State) sendDone(d *memDesc, ptl types.PtlIndex, bits types.MatchBits, size uint64, seq uint32) {
	if q := s.eqRes(d.md.EQ); q != nil {
		q.Post(eventq.Event{
			Type:      types.EventSend,
			Initiator: s.self,
			PtlIndex:  ptl,
			MatchBits: bits,
			RLength:   size,
			MLength:   size,
			MD:        d.handle,
			UserPtr:   d.md.UserPtr,
			MsgSeq:    uint64(seq),
		})
	}
	s.ctIncMD(d.md.CT, d.md.Options, types.MDCTSend, size)
	s.unlinkIfSpent(d)
}

// lend is one put's body on loan to the fabric. Its descriptor cannot be
// unlinked or updated while it is out (memDesc.lent), so d stays valid until
// the return.
type lend struct {
	body bufpool.Buf // the loan itself (Buf.Lend); its last Release calls back
	back func()      // ln.returned, bound once per record: a loan allocates nothing
	s    *State
	d    *memDesc
	tx   Sender // transmits what the completion fires (Outbound.TakeBody)
	ptl  types.PtlIndex
	bits types.MatchBits
	size uint64
	seq  uint32
}

// lendPool recycles lend records with their headers. It has no New hook:
// the record's callback leads back to startPut, which a pool initializer
// may not (an initialization cycle); startPut makes a missing one.
var lendPool sync.Pool

// fireScratch pools the slices a return's triggered operations are
// collected in.
var fireScratch = sync.Pool{New: func() any {
	s := make([]Outbound, 0, 4)
	return &s
}}

// returned completes the put of a lend when the fabric releases its body
// for the last time. The fabric does that outside its own locks
// (transport.Endpoint), so the triggered operations the completion fires
// are transmitted right here, by whoever caused the crossing — the same
// rule as any FireTriggered drain.
func (ln *lend) returned() {
	s, d, tx := ln.s, ln.d, ln.tx
	d.owner.Lock()
	d.lent--
	s.sendDone(d, ln.ptl, ln.bits, ln.size, ln.seq)
	d.owner.Unlock()
	s.lent.Add(-1)
	ln.s, ln.d, ln.tx = nil, nil, nil
	lendPool.Put(ln)
	if tx == nil || s.trigPending.Load() == nil {
		return
	}
	sp := fireScratch.Get().(*[]Outbound)
	outs := s.FireTriggered((*sp)[:0])
	for i := range outs {
		_ = tx.Send(outs[i]) // a fired put has no caller to report to (fireOp)
		outs[i] = Outbound{}
	}
	*sp = outs[:0]
	fireScratch.Put(sp)
}

// StartGet builds the wire message for a get operation (Figure 2). The
// request asks for as many bytes as the local descriptor can hold; the
// reply lands at the start of the descriptor. The descriptor is pinned
// (pending) until the reply arrives — §4.7: "the memory descriptor must
// not be unlinked until the reply is received."
func (s *State) StartGet(md types.Handle, target types.ProcessID,
	ptl types.PtlIndex, cookie types.ACIndex, bits types.MatchBits, remoteOffset uint64) (Outbound, error) {
	out, err := s.startGet(md, target, ptl, cookie, bits, remoteOffset)
	if err != nil {
		return Outbound{}, fmt.Errorf("%w (md %v)", err, md)
	}
	return out, nil
}

// startGet is StartGet returning bare sentinel errors; like startPut it is
// the body of a fired TriggeredGet on the delivery lanes.
func (s *State) startGet(md types.Handle, target types.ProcessID,
	ptl types.PtlIndex, cookie types.ACIndex, bits types.MatchBits, remoteOffset uint64) (Outbound, error) {

	s.pins.Enter()
	d, err := s.lookupMDOpen(md)
	if err != nil {
		s.pins.Exit()
		return Outbound{}, err
	}
	d.owner.Lock()
	defer d.owner.Unlock()
	gone := d.unlinked
	s.pins.Exit()
	if gone {
		return Outbound{}, types.ErrInvalidHandle
	}
	if !d.active() {
		return Outbound{}, types.ErrInvalidArgument
	}
	h := wire.NewGet(s.self, target, ptl, cookie, bits, remoteOffset, md, d.view.size())
	h.Seq = s.nextSeq()
	trace.Record(trace.StageTxEnqueue,
		uint32(s.self.NID), uint32(s.self.PID), uint64(h.Seq), d.view.size())
	b := bufpool.Get(wire.HeaderSize)
	h.Encode(b.Bytes())
	s.counters.Send(0)
	d.consume()
	d.pending++
	return Outbound{Dst: target, Msg: b.Bytes(), buf: b}, nil
}
