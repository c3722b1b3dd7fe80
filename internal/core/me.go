package core

import (
	"fmt"

	"repro/internal/types"
)

// matchEntry is one element of a match list (Figure 3): two bit patterns
// ("don't care" and "must match"), an initiator restriction, an unlink
// flag, and an ordered list of memory descriptors.
//
// The entry doubles as a node of its portal's linked list and match index
// (index.go); prev/next/seq and the mutable fields (mds, unlinked) are
// guarded by the portal's mutex.
//
// Entries are arena-backed (State.meArena): the immutable identity fields
// must be fully written before allocME publishes the entry to the rcu
// table, and nothing may touch the entry after unlinkME returns it to the
// arena.
type matchEntry struct {
	handle     types.Handle
	ptlIndex   types.PtlIndex
	matchID    types.ProcessID // which initiators this entry accepts
	matchBits  types.MatchBits // the "must match" pattern
	ignoreBits types.MatchBits // the "don't care" mask
	unlink     types.UnlinkOption
	mds        []*memDesc //lint:guardedby portal.mu,memDesc.owner
	unlinked   bool       //lint:guardedby portal.mu,memDesc.owner

	// mdsArr is the inline backing for mds: nearly every entry carries one
	// or two descriptors, so the common case allocates nothing beyond the
	// arena slot itself.
	mdsArr [2]*memDesc //lint:guardedby portal.mu,memDesc.owner

	prev, next *matchEntry //lint:guardedby portal.mu,memDesc.owner
	seq        uint64      //lint:guardedby portal.mu,memDesc.owner  order key within the match list (index.go)
}

// matches implements the Figure 3 semantics: a set of "don't care" bits
// (ignoreBits) and "must match" bits, plus the initiator restriction.
func (me *matchEntry) matches(initiator types.ProcessID, bits types.MatchBits) bool {
	if !me.matchID.Accepts(initiator) {
		return false
	}
	return (bits^me.matchBits)&^me.ignoreBits == 0
}

// MEAttach creates a match entry and attaches it to the match list at the
// given portal-table index, at the head (Before) or tail (After) of the
// list. It mirrors PtlMEAttach.
func (s *State) MEAttach(ptl types.PtlIndex, matchID types.ProcessID,
	matchBits, ignoreBits types.MatchBits, unlink types.UnlinkOption,
	pos types.InsertPosition) (types.Handle, error) {

	if int(ptl) >= len(s.table) {
		return types.InvalidHandle, fmt.Errorf("%w: portal index %d out of range [0,%d]",
			types.ErrInvalidArgument, ptl, len(s.table)-1)
	}
	p := &s.table[ptl]
	p.mu.Lock()
	defer p.mu.Unlock()
	me := s.meArena.Get()
	me.ptlIndex = ptl
	me.matchID = matchID
	me.matchBits = matchBits
	me.ignoreBits = ignoreBits
	me.unlink = unlink
	me.mds = me.mdsArr[:0]
	h, err := s.allocME(me)
	if err != nil {
		s.meArena.Put(me)
		return types.InvalidHandle, err
	}
	me.handle = h
	p.attach(me, nil, pos)
	return h, nil
}

// MEInsert creates a match entry positioned immediately before or after an
// existing one in the same match list. It mirrors PtlMEInsert.
func (s *State) MEInsert(base types.Handle, matchID types.ProcessID,
	matchBits, ignoreBits types.MatchBits, unlink types.UnlinkOption,
	pos types.InsertPosition) (types.Handle, error) {

	s.pins.Enter()
	ref, ok := s.lookupME(base)
	if !ok {
		s.pins.Exit()
		return types.InvalidHandle, fmt.Errorf("%w: %v", types.ErrInvalidHandle, base)
	}
	p := &s.table[ref.ptlIndex]
	p.mu.Lock()
	defer p.mu.Unlock()
	gone := ref.unlinked
	s.pins.Exit()
	if gone {
		return types.InvalidHandle, fmt.Errorf("%w: %v not in its match list", types.ErrInvalidHandle, base)
	}
	me := s.meArena.Get()
	me.ptlIndex = ref.ptlIndex
	me.matchID = matchID
	me.matchBits = matchBits
	me.ignoreBits = ignoreBits
	me.unlink = unlink
	me.mds = me.mdsArr[:0]
	h, err := s.allocME(me)
	if err != nil {
		s.meArena.Put(me)
		return types.InvalidHandle, err
	}
	me.handle = h
	p.attach(me, ref, pos)
	return h, nil
}

// lookupME resolves a handle with atomic loads only — no locks. The entry
// may be unlinked (and on its way back to the arena) the instant this
// returns, so the caller must bracket the call in a pins window, take the
// owning portal's lock, and re-check me.unlinked before trusting anything
// mutable (the bridge protocol, docs/PERF.md §7).
func (s *State) lookupME(h types.Handle) (*matchEntry, bool) {
	return s.mes.lookup(h)
}

// allocME reserves a handle slot, failing if the state is closed. The
// caller holds the portal lock (attach happens under it); resMu is taken
// only for the table write. Publication makes the entry visible to
// lock-free readers: every field a pinned reader may touch without the
// portal lock must already be written.
func (s *State) allocME(me *matchEntry) (types.Handle, error) {
	s.resMu.Lock()
	if s.closed.Load() {
		s.resMu.Unlock()
		return types.InvalidHandle, types.ErrClosed
	}
	h, err := s.mes.alloc(me)
	s.resMu.Unlock()
	return h, err
}

// MEUnlink removes a match entry and unlinks (but does not invalidate the
// handles of) any memory descriptors still attached; attached descriptors
// are released as in PtlMEUnlink, which frees the whole chain.
func (s *State) MEUnlink(h types.Handle) error {
	s.pins.Enter()
	me, ok := s.lookupME(h)
	if !ok {
		s.pins.Exit()
		return fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	p := &s.table[me.ptlIndex]
	p.mu.Lock()
	defer p.mu.Unlock()
	gone := me.unlinked
	s.pins.Exit()
	if gone {
		return fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	for _, md := range me.mds {
		if md.inFlight() > 0 {
			return fmt.Errorf("%w: attached MD %v has operations in flight", types.ErrMDInUse, md.handle)
		}
	}
	for _, md := range me.mds {
		md.unlinked = true
	}
	s.resMu.Lock()
	for _, md := range me.mds {
		s.mds.release(md.handle)
	}
	s.resMu.Unlock()
	// Slots are released (stale handles miss); the records themselves may
	// be recycled only once no pin is open — Put parks them in limbo.
	for _, md := range me.mds {
		s.mdArena.Put(md)
	}
	me.mds = nil
	s.unlinkME(p, me)
	return nil
}

// unlinkME detaches the entry from its match list and index, frees its
// slot, and returns the record to the arena. The caller holds p.mu —
// possibly as the aliased owner lock of an attached descriptor (unlinkMD's
// cascade) — and must NOT hold resMu. The entry must not be touched after
// this returns: Put is the last use.
//
//lint:requires portal.mu/memDesc.owner
func (s *State) unlinkME(p *portal, me *matchEntry) {
	if me.unlinked {
		return
	}
	me.unlinked = true
	p.detach(me)
	h := me.handle
	s.resMu.Lock()
	s.mes.release(h)
	s.resMu.Unlock()
	s.meArena.Put(me)
}

// MatchListLen reports the current length of the match list at a portal
// index (used by tests and the memscale experiment).
func (s *State) MatchListLen(ptl types.PtlIndex) int {
	if int(ptl) >= len(s.table) {
		return 0
	}
	p := &s.table[ptl]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}
