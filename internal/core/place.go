package core

import (
	"repro/internal/types"
	"repro/internal/wire"
)

// Direct placement. A fabric that announces a long message before its bytes
// move (the rtscts rendezvous) lets the engine do what §5.1 describes: resolve
// the header first, then land the body in the memory descriptor as it
// arrives, with no delivery buffer in between. The receive rules are the
// ones of translate.go, cut in two:
//
//   - Resolve is their front — portal bounds, ACL, the Figure 4 walk and
//     accept for a put; lookup, unlinked, truncation for a reply;
//   - Commit is their tail — commitPut and the ack, commitReply.
//
// recvPut and recvReply run front, write and tail under one hold of the
// owner lock; an announced message runs them with the lock dropped in
// between, each fragment written under its own short hold.
//
// Only what cannot be observed in between is placed. A put qualifies when
// the descriptor the walk returns manages its offset remotely, has an
// infinite threshold and does not accumulate — the persistent one-sided
// window. Resolving such a put changes nothing a later walk looks at (no
// threshold to drain, no local offset to advance), so every other message
// matches exactly as it would have, had this one been matched when it
// committed. Use-once and locally managed descriptors are different: a
// layer such as internal/mpi relies on match, deliver and event being one
// atomic step for them (Portals 3.0 has no PUT_START event to tell it a
// receive is taken), so those answer Buffer and are delivered whole. A
// reply qualifies when a get is outstanding on its descriptor.
//
// What is new for the application: the bytes of a placed message become
// visible in the region before its event is posted, and between resolve and
// commit the descriptor is pinned — MDUnlink, MEUnlink and MDUpdate answer
// ErrMDInUse, as they do while a get awaits its reply.

// Verdict is the engine's answer to an announced message.
type Verdict uint8

const (
	Buffer  Verdict = iota // deliver it whole; the atomic path will judge it
	Place                  // resolved: write the body through the Placement, then Commit
	Discard                // dropped, and counted, on the header alone
)

// Placement is one announced put or reply between resolve and commit. It
// holds a count on its descriptor (memDesc.landing), which is what keeps the
// record it points to from being unlinked and recycled; Commit or Abort
// gives the count back, so exactly one of them must follow a Place verdict.
type Placement struct {
	h       wire.Header
	d       *memDesc
	offset  uint64
	mlength uint64
}

// Header is the header the placement was resolved for.
func (pl *Placement) Header() *wire.Header { return &pl.h }

// placeable is the eligibility rule for puts (see the file comment).
//
//lint:requires memDesc.owner/portal.mu
func placeable(d *memDesc) bool {
	return d.threshold == types.ThresholdInfinite &&
		d.md.Options&(types.MDManageRemote|types.MDAccumulate) == types.MDManageRemote
}

// Resolve judges an announced message by its header. On Place, pl describes
// where the body goes. A Discard has been counted with the reason the whole
// message would have been dropped for.
//
//lint:noalloc resolve runs on the delivery lanes
func (s *State) Resolve(h *wire.Header, pl *Placement) Verdict {
	switch h.Op {
	case wire.OpPut:
		if int(h.PtlIndex) >= len(s.table) {
			s.counters.Drop(types.DropBadPortal)
			return Discard
		}
		p := &s.table[h.PtlIndex]
		p.mu.Lock()
		d, offset, mlength, reason := s.match(p, h, types.MDOpPut)
		if reason != types.DropNone {
			p.mu.Unlock()
			s.counters.Drop(reason)
			return Discard
		}
		if !placeable(d) {
			p.mu.Unlock()
			return Buffer
		}
		d.landing++
		p.mu.Unlock()
		*pl = Placement{h: *h, d: d, offset: offset, mlength: mlength}
		return Place
	case wire.OpReply:
		pin := s.pins.Enter(uint64(h.Initiator.NID))
		d, ok := s.lookupMD(h.MD)
		if !ok {
			s.pins.Exit(pin)
			s.counters.Drop(types.DropMDGone)
			return Discard
		}
		d.owner.Lock()
		defer d.owner.Unlock()
		gone := d.unlinked
		s.pins.Exit(pin)
		if gone {
			s.counters.Drop(types.DropMDGone)
			return Discard
		}
		if d.pending == 0 {
			return Buffer // a stray: no get is waiting for it
		}
		d.landing++
		*pl = Placement{h: *h, d: d, mlength: replyLength(d, h)}
		return Place
	}
	return Buffer
}

// WriteAt lands b, the payload bytes from offset off, in the descriptor,
// clipped to the manipulated length. The descriptor's owner lock is held for
// this one fragment, so the write serializes with whole-message deliveries
// into the same bytes.
//
//lint:noalloc the per-fragment write of a placed message
func (pl *Placement) WriteAt(off uint64, b []byte) {
	if off >= pl.mlength {
		return
	}
	b = b[:min(uint64(len(b)), pl.mlength-off)]
	d := pl.d
	d.owner.Lock()
	d.view.writeAt(pl.offset+off, b)
	d.owner.Unlock()
}

// Commit finishes a placement whose body has landed: the tail of recvPut or
// recvReply, with any acknowledgment appended to out.
//
//lint:noalloc commit runs on the delivery lanes
func (s *State) Commit(pl *Placement, out []Outbound) []Outbound {
	d, h := pl.d, &pl.h
	d.owner.Lock()
	d.landing--
	if h.Op == wire.OpReply {
		s.commitReply(d, h, pl.mlength)
		d.owner.Unlock()
	} else {
		ackWanted := s.commitPut(d, h, pl.offset, pl.mlength)
		d.owner.Unlock()
		if ackWanted {
			out = s.ackPut(h, pl.mlength, out)
		}
	}
	return s.FireTriggered(out)
}

// Abort gives up a placement whose body will never be whole — the peer broke
// the rendezvous, or an endpoint closed under it. Nothing is posted and
// nothing acknowledged; the transfer counts as one drop. A get whose reply
// is aborted is over: the reply will not be sent again.
func (s *State) Abort(pl *Placement) {
	d := pl.d
	d.owner.Lock()
	d.landing--
	if pl.h.Op == wire.OpReply {
		if d.pending > 0 {
			d.pending--
		}
		s.unlinkIfSpent(d)
	}
	d.owner.Unlock()
	s.counters.Drop(types.DropAborted)
}
