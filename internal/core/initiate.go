package core

import (
	"fmt"

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

// StartPut builds the wire message for a put operation (Figure 1). The
// descriptor's entire region is sent, as PtlPut specifies; the returned
// Outbound is ready for the transport. A send event is posted to the
// descriptor's event queue immediately — the message is encoded (the DMA
// analogue) before return, so the buffer is reusable.
func (s *State) StartPut(md types.Handle, ack types.AckRequest, target types.ProcessID,
	ptl types.PtlIndex, cookie types.ACIndex, bits types.MatchBits, remoteOffset uint64) (Outbound, error) {
	out, err := s.startPut(md, ack, target, ptl, cookie, bits, remoteOffset)
	if err != nil {
		return Outbound{}, fmt.Errorf("%w (md %v)", err, md)
	}
	return out, nil
}

// startPut is StartPut returning bare sentinel errors: it is also the body
// of a fired TriggeredPut, which runs on the delivery lanes, so the whole
// function — failure paths included — stays allocation-free.
//
//lint:noalloc triggered puts execute this on the delivery lanes (ct.go)
func (s *State) startPut(md types.Handle, ack types.AckRequest, target types.ProcessID,
	ptl types.PtlIndex, cookie types.ACIndex, bits types.MatchBits, remoteOffset uint64) (Outbound, error) {

	pin := s.pins.Enter(uint64(md.Index))
	d, err := s.lookupMDOpen(md)
	if err != nil {
		s.pins.Exit(pin)
		return Outbound{}, err
	}
	d.owner.Lock()
	defer d.owner.Unlock()
	gone := d.unlinked
	s.pins.Exit(pin)
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
	// Gather header+payload straight into a pooled buffer: a transport that
	// implements SendBuf (loopback) carries this exact buffer to the target
	// delivery engine, making the gather the only initiator-side copy.
	b := bufpool.Get(wire.HeaderSize + int(size))
	s.counters.Pool(b.Reused())
	n := h.Encode(b.Bytes())
	d.view.readInto(b.Bytes()[n:], 0)
	s.counters.Send(int(size))
	d.consume()
	if q := s.eqFor(d.md.EQ); q != nil {
		q.Post(eventq.Event{
			Type:      types.EventSend,
			Initiator: s.self,
			PtlIndex:  ptl,
			MatchBits: bits,
			RLength:   h.RLength,
			MLength:   h.RLength,
			MD:        d.handle,
			UserPtr:   d.md.UserPtr,
			MsgSeq:    uint64(h.Seq),
		})
	}
	// Local send completion counts (MDCTSend) before a possible unlink so
	// the increment still lands for fire-and-forget descriptors.
	s.ctIncMD(d.md.CT, d.md.Options, types.MDCTSend, size)
	s.unlinkIfSpent(d)
	return Outbound{Dst: target, Msg: b.Bytes(), buf: b}, nil
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
//
//lint:noalloc triggered gets execute this on the delivery lanes (ct.go)
func (s *State) startGet(md types.Handle, target types.ProcessID,
	ptl types.PtlIndex, cookie types.ACIndex, bits types.MatchBits, remoteOffset uint64) (Outbound, error) {

	pin := s.pins.Enter(uint64(md.Index))
	d, err := s.lookupMDOpen(md)
	if err != nil {
		s.pins.Exit(pin)
		return Outbound{}, err
	}
	d.owner.Lock()
	defer d.owner.Unlock()
	gone := d.unlinked
	s.pins.Exit(pin)
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
	s.counters.Pool(b.Reused())
	h.Encode(b.Bytes())
	s.counters.Send(0)
	d.consume()
	d.pending++
	return Outbound{Dst: target, Msg: b.Bytes(), buf: b}, nil
}
