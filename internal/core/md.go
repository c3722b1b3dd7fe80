package core

import (
	"fmt"
	"sync"

	"repro/internal/eventq"
	"repro/internal/types"
)

// MD is the user-visible memory descriptor (§4.4: "each memory descriptor
// identifies a memory region and an optional event queue").
type MD struct {
	// Start is the memory region. Incoming data lands directly in this
	// slice — the Portals path has no intermediate protocol buffer.
	Start []byte
	// Segments, when non-empty, replaces Start with a gather/scatter
	// list (the §7 extension, PTL_MD_IOVEC in later Portals versions):
	// the descriptor behaves as the concatenation of the segments.
	// Start must be nil when Segments is used.
	Segments [][]byte
	// Threshold is the number of operations the descriptor accepts before
	// becoming inactive; ThresholdInfinite disables the countdown.
	Threshold int32
	// Options enable operations and select offset management (§4.4, §4.8).
	Options types.MDOptions
	// EQ is the event queue to log operations into; InvalidHandle for none.
	EQ types.Handle
	// CT is the counting event completions on this descriptor increment;
	// InvalidHandle for none. Which completion classes count is selected
	// by the MDCT* option bits (MDCTPut, MDCTAck, ...); counting is
	// independent of the event queue and works with EQ unset.
	CT types.Handle
	// UserPtr is returned verbatim in every event involving this
	// descriptor; protocols use it to find their per-buffer state without
	// a lookup table.
	UserPtr any
}

// memDesc is the internal state of an attached or bound descriptor. Its
// mutable fields are guarded by owner: the owning portal's mutex for
// attached descriptors, State.bindMu for free-floating (MDBind) ones. The
// owner is fixed before the descriptor is published to the handle table,
// so recvAck/recvReply can resolve the handle lock-free (inside a pins
// window), take owner, and re-check unlinked — the bridge protocol of
// docs/PERF.md §7.
//
// Descriptors are arena-backed (State.mdArena): identity fields (handle
// excepted) must be written before allocMD publishes the record, and
// nothing may touch it after unlinkMD hands it back to the arena.
type memDesc struct {
	md          MD     //lint:guardedby owner,portal.mu,State.bindMu
	view        ioView //lint:guardedby owner,portal.mu,State.bindMu
	handle      types.Handle
	me          *matchEntry // nil for free-floating (MDBind) descriptors
	owner       *sync.Mutex // lock guarding this descriptor's mutable state
	unlinkOp    types.UnlinkOption
	threshold   int32  //lint:guardedby owner,portal.mu,State.bindMu  remaining operations; -1 = infinite
	localOffset uint64 //lint:guardedby owner,portal.mu,State.bindMu
	pending     int    //lint:guardedby owner,portal.mu,State.bindMu  operations awaiting a remote response
	landing     int    //lint:guardedby owner,portal.mu,State.bindMu  placements between resolve and commit (place.go)
	lent        int    //lint:guardedby owner,portal.mu,State.bindMu  put bodies the fabric still reads (LendPut)
	unlinked    bool   //lint:guardedby owner,portal.mu,State.bindMu
}

// inFlight counts what pins the descriptor: gets awaiting their reply,
// announced messages landing in it, and put bodies lent out of it. While it
// is non-zero the descriptor is not unlinked, by the application or by the
// engine.
//
//lint:requires owner/portal.mu
func (d *memDesc) inFlight() int { return d.pending + d.landing + d.lent }

// active reports whether the descriptor still accepts operations.
//
//lint:requires owner/portal.mu
func (d *memDesc) active() bool { return d.threshold != 0 }

// consume decrements the threshold for one accepted operation.
//
//lint:requires owner/portal.mu
func (d *memDesc) consume() {
	if d.threshold > 0 {
		d.threshold--
	}
}

// validateMD checks the user-supplied descriptor. Caller holds resMu (the
// check must be atomic with the subsequent table write).
//
//lint:requires State.resMu
func (s *State) validateMD(md MD) error {
	if len(md.Segments) > 0 && md.Start != nil {
		return fmt.Errorf("%w: MD specifies both Start and Segments", types.ErrInvalidArgument)
	}
	if int64(viewOf(&md).size()) > s.limits.MaxMDSize {
		return fmt.Errorf("%w: MD length %d exceeds limit %d", types.ErrInvalidArgument, viewOf(&md).size(), s.limits.MaxMDSize)
	}
	if md.Threshold < 0 && md.Threshold != types.ThresholdInfinite {
		return fmt.Errorf("%w: bad threshold %d", types.ErrInvalidArgument, md.Threshold)
	}
	if md.EQ.IsValid() {
		if _, ok := s.eqs.lookup(md.EQ); !ok {
			return fmt.Errorf("%w: event queue %v", types.ErrInvalidHandle, md.EQ)
		}
	}
	if md.CT.IsValid() {
		if _, ok := s.cts.lookup(md.CT); !ok {
			return fmt.Errorf("%w: counting event %v", types.ErrInvalidHandle, md.CT)
		}
	}
	if md.Options&types.MDAccumulate != 0 {
		if len(md.Segments) > 0 {
			return fmt.Errorf("%w: MDAccumulate requires a contiguous region", types.ErrInvalidArgument)
		}
		if md.Options&types.MDOpGet != 0 {
			return fmt.Errorf("%w: MDAccumulate applies to puts only", types.ErrInvalidArgument)
		}
	}
	return nil
}

// allocMD validates the descriptor and reserves a handle slot, failing if
// the state is closed. The caller holds d.owner — spelled as the full
// aliasing alternation because MDAttach arrives under the portal lock and
// MDBind under bindMu. Publication makes the record visible to lock-free
// readers: owner, me, and the other identity fields must already be set.
//
//lint:requires memDesc.owner/portal.mu/State.bindMu
func (s *State) allocMD(d *memDesc) (types.Handle, error) {
	s.resMu.Lock()
	if s.closed.Load() {
		s.resMu.Unlock()
		return types.InvalidHandle, types.ErrClosed
	}
	if err := s.validateMD(d.md); err != nil {
		s.resMu.Unlock()
		return types.InvalidHandle, err
	}
	h, err := s.mds.alloc(d)
	s.resMu.Unlock()
	return h, err
}

// lookupMD resolves a handle with atomic loads only — no locks. The
// descriptor may be unlinked (and on its way back to the arena) the
// instant this returns, so the caller must bracket the call in a pins
// window, take d.owner, and re-check d.unlinked before touching mutable
// state (docs/PERF.md §7).
func (s *State) lookupMD(h types.Handle) (*memDesc, bool) {
	return s.mds.lookup(h)
}

// MDAttach creates a memory descriptor and appends it to the MD list of a
// match entry (PtlMDAttach). unlinkOp selects whether exhausting the
// threshold unlinks the descriptor (Figure 4's unlink step) or leaves it
// inactive but linked.
func (s *State) MDAttach(me types.Handle, md MD, unlinkOp types.UnlinkOption) (types.Handle, error) {
	s.pins.Enter()
	entry, ok := s.lookupME(me)
	if !ok {
		s.pins.Exit()
		return types.InvalidHandle, fmt.Errorf("%w: %v", types.ErrInvalidHandle, me)
	}
	p := &s.table[entry.ptlIndex]
	p.mu.Lock()
	defer p.mu.Unlock()
	gone := entry.unlinked
	s.pins.Exit()
	if gone {
		return types.InvalidHandle, fmt.Errorf("%w: %v", types.ErrInvalidHandle, me)
	}
	d := s.mdArena.Get()
	d.md = md
	d.view = viewOf(&md)
	d.me = entry
	d.owner = &p.mu
	d.unlinkOp = unlinkOp
	d.threshold = md.Threshold
	h, err := s.allocMD(d)
	if err != nil {
		s.mdArena.Put(d)
		return types.InvalidHandle, err
	}
	d.handle = h
	entry.mds = append(entry.mds, d)
	return h, nil
}

// MDBind creates a free-floating memory descriptor not attached to any
// match entry (PtlMDBind); these are the initiator-side descriptors used
// by Put and Get. With unlinkOp == Unlink the descriptor removes itself
// once its threshold is spent and no reply is outstanding — the idiom for
// fire-and-forget send buffers.
func (s *State) MDBind(md MD, unlinkOp types.UnlinkOption) (types.Handle, error) {
	s.bindMu.Lock()
	defer s.bindMu.Unlock()
	d := s.mdArena.Get()
	d.md = md
	d.view = viewOf(&md)
	d.owner = &s.bindMu
	d.unlinkOp = unlinkOp
	d.threshold = md.Threshold
	h, err := s.allocMD(d)
	if err != nil {
		s.mdArena.Put(d)
		return types.InvalidHandle, err
	}
	d.handle = h
	return h, nil
}

// MDUnlink removes a descriptor (PtlMDUnlink). It fails with ErrMDInUse if
// the descriptor has operations in flight — §4.7: "the memory descriptor
// must not be unlinked until the reply is received".
func (s *State) MDUnlink(h types.Handle) error {
	s.pins.Enter()
	d, ok := s.lookupMD(h)
	if !ok {
		s.pins.Exit()
		return fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	d.owner.Lock()
	defer d.owner.Unlock()
	gone := d.unlinked
	s.pins.Exit()
	if gone {
		return fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	if n := d.inFlight(); n > 0 {
		return fmt.Errorf("%w: %d operations in flight", types.ErrMDInUse, n)
	}
	s.unlinkMD(d, false)
	return nil
}

// MDUpdate atomically replaces the descriptor's user-visible fields,
// conditioned on an event queue being empty (PtlMDUpdate). If testEQ is a
// valid handle and that queue has pending events, the update is refused so
// the caller can first drain them — this is the primitive MPI uses to
// safely shrink/repoint receive buffers. It is also refused, with
// ErrMDInUse, while an announced message is landing in the descriptor or a
// put's body is lent out of it: the fragments still to come were resolved
// against the region as it is, and the fabric still reads it.
func (s *State) MDUpdate(h types.Handle, newMD MD, testEQ types.Handle) error {
	s.pins.Enter()
	d, ok := s.lookupMD(h)
	if !ok {
		s.pins.Exit()
		return fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	d.owner.Lock()
	defer d.owner.Unlock()
	gone := d.unlinked
	s.pins.Exit()
	if gone {
		return fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	if n := d.landing + d.lent; n > 0 {
		return fmt.Errorf("%w: %d transfers landing or lent, update refused", types.ErrMDInUse, n)
	}
	s.resMu.Lock()
	if testEQ.IsValid() {
		q, ok := s.eqs.lookup(testEQ)
		if !ok {
			s.resMu.Unlock()
			return fmt.Errorf("%w: %v", types.ErrInvalidHandle, testEQ)
		}
		if q.Pending() > 0 {
			s.resMu.Unlock()
			return fmt.Errorf("%w: events pending, update refused", types.ErrMDInUse)
		}
	}
	err := s.validateMD(newMD)
	s.resMu.Unlock()
	if err != nil {
		return err
	}
	d.md = newMD
	d.view = viewOf(&newMD)
	d.threshold = newMD.Threshold
	d.localOffset = 0
	return nil
}

// MDStatus reports a descriptor's remaining threshold and local offset;
// tests and higher layers use it to observe consumption.
func (s *State) MDStatus(h types.Handle) (threshold int32, localOffset uint64, err error) {
	s.pins.Enter()
	d, ok := s.lookupMD(h)
	if !ok {
		s.pins.Exit()
		return 0, 0, fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	d.owner.Lock()
	defer d.owner.Unlock()
	gone := d.unlinked
	s.pins.Exit()
	if gone {
		return 0, 0, fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	return d.threshold, d.localOffset, nil
}

// unlinkIfSpent is Figure 4's unlink step: a descriptor whose threshold is
// used up, that asked to be unlinked then, and that nothing in flight still
// needs, goes. Caller holds d.owner.
//
//lint:requires memDesc.owner/portal.mu
func (s *State) unlinkIfSpent(d *memDesc) {
	if d.threshold == 0 && d.unlinkOp == types.Unlink && d.inFlight() == 0 {
		s.unlinkMD(d, true)
	}
}

// unlinkMD removes the descriptor and, per Figure 4, cascades to the match
// entry when the descriptor was its last and the entry asked for
// auto-unlink. When byEngine is true an unlink event is posted.
//
// The caller holds d.owner (which for attached descriptors IS the portal
// lock the cascade needs) and must NOT hold resMu. Everything the unlink
// event needs is captured into locals BEFORE the slot is released: from
// the release on, stale handles miss, and once the record reaches the
// arena it may eventually be rewritten — Put is the last use of d.
//
//lint:requires memDesc.owner/portal.mu
func (s *State) unlinkMD(d *memDesc, byEngine bool) {
	if d.unlinked {
		return
	}
	d.unlinked = true
	if me := d.me; me != nil {
		for i, x := range me.mds {
			if x == d {
				me.mds = append(me.mds[:i], me.mds[i+1:]...)
				break
			}
		}
		// Figure 4: "if the memory descriptor is unlinked and this empties
		// the memory descriptor list, the match entry will also be
		// unlinked if its unlink flag has been set."
		if len(me.mds) == 0 && me.unlink == types.Unlink {
			s.unlinkME(&s.table[me.ptlIndex], me)
		}
	}
	h, userPtr, eqh := d.handle, d.md.UserPtr, d.md.EQ
	s.resMu.Lock()
	s.mds.release(h)
	s.resMu.Unlock()
	s.mdArena.Put(d)
	if byEngine {
		if q := s.eqRes(eqh); q != nil {
			q.Post(eventq.Event{
				Type:    types.EventUnlink,
				MD:      h,
				UserPtr: userPtr,
			})
		}
	}
}
