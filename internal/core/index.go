package core

// Match-index machinery behind the Figure 4 translation walk (docs/PERF.md).
//
// Each portal's match list is a doubly-linked list whose entries carry a
// gap-allocated order key (seq). On top of the list sits a hybrid index:
//
//   - entries with ignoreBits == 0 and a fully-specified matchID live in a
//     hash map keyed by (matchBits, initiator NID, initiator PID);
//   - entries with ignoreBits == 0 and a fully-wildcard matchID live in a
//     second map keyed by matchBits alone (the wildcard-initiator bucket);
//   - everything else — partial initiator wildcards or nonzero ignoreBits —
//     stays in a small seq-sorted residual list that is scanned linearly.
//
// Every bucket is kept sorted by seq, so translate can merge the three
// candidate streams in global list order and preserve the exact first-match
// semantics of Figure 4 while resolving exact-match traffic (MPI tags,
// memscale's unexpected-message lists) in O(1) instead of O(n).

import (
	"sort"
	"sync"

	"repro/internal/types"
)

// Order keys are allocated with wide gaps so head/tail insertion and
// MEInsert's between-two-entries case almost never renumber. seqBase leaves
// 2^30 gap-sized steps of headroom below the first entry; a midpoint
// insertion that finds no room (gap < 2) triggers an O(n) renumber, which
// preserves relative order and therefore keeps every bucket sorted.
const (
	seqBase uint64 = 1 << 62
	seqGap  uint64 = 1 << 32
)

// exactKey identifies one hash bucket of fully-specified entries.
type exactKey struct {
	bits types.MatchBits
	nid  types.NID
	pid  types.PID
}

// Index classes for a match entry (classify).
const (
	idxExact = iota
	idxAnyInit
	idxResidual
)

// portal is one slot of the portal table: the ordered match list plus its
// index, under the per-portal delivery lock. See State for the lock order.
//
// Guard alternatives: an attached descriptor's memDesc.owner IS its
// portal's mu (md.go sets owner = &p.mu), so code holding a descriptor's
// owner lock legitimately touches that portal — the alternation below is
// the static spelling of that aliasing.
type portal struct {
	mu sync.Mutex

	head, tail *matchEntry //lint:guardedby mu,memDesc.owner
	count      int         //lint:guardedby mu,memDesc.owner

	exact    map[exactKey][]*matchEntry        //lint:guardedby mu,memDesc.owner
	anyInit  map[types.MatchBits][]*matchEntry //lint:guardedby mu,memDesc.owner
	residual []*matchEntry                     //lint:guardedby mu,memDesc.owner

	// walkSteps is the length of the most recent translate walk, stashed
	// under mu so the receive handlers can attach it to their match-done
	// flight-recorder records without widening translate's signature.
	walkSteps int //lint:guardedby mu,memDesc.owner
}

// classify places an entry into one of the three index classes. The class
// depends only on immutable fields, so it is stable over the entry's life.
func classify(me *matchEntry) int {
	if me.ignoreBits != 0 {
		return idxResidual
	}
	wildNID := me.matchID.NID == types.NIDAny
	wildPID := me.matchID.PID == types.PIDAny
	switch {
	case !wildNID && !wildPID:
		return idxExact
	case wildNID && wildPID:
		return idxAnyInit
	default:
		return idxResidual
	}
}

// attach links me into the list and index, taking ownership: the match
// list (and its index) own the entry until detach. ref == nil means list
// head (Before) or tail (After); otherwise the position is relative to
// ref. Caller holds p.mu.
//
//lint:requires mu/memDesc.owner
func (p *portal) attach(me *matchEntry, ref *matchEntry, pos types.InsertPosition) {
	var prev, next *matchEntry
	if ref == nil {
		if pos == types.Before {
			next = p.head
		} else {
			prev = p.tail
		}
	} else if pos == types.Before {
		prev, next = ref.prev, ref
	} else {
		prev, next = ref, ref.next
	}
	me.seq = p.seqBetween(prev, next)
	me.prev, me.next = prev, next
	if prev != nil {
		prev.next = me
	} else {
		p.head = me
	}
	if next != nil {
		next.prev = me
	} else {
		p.tail = me
	}
	p.count++
	p.indexAdd(me)
}

// detach unlinks me from the list and index. Caller holds p.mu.
//
//lint:requires mu/memDesc.owner
func (p *portal) detach(me *matchEntry) {
	if me.prev != nil {
		me.prev.next = me.next
	} else {
		p.head = me.next
	}
	if me.next != nil {
		me.next.prev = me.prev
	} else {
		p.tail = me.prev
	}
	me.prev, me.next = nil, nil
	p.count--
	p.indexRemove(me)
}

// seqBetween picks an order key strictly between prev and next (nil means
// list end), renumbering the whole list when the gap is exhausted.
//
//lint:requires mu/memDesc.owner
func (p *portal) seqBetween(prev, next *matchEntry) uint64 {
	for {
		switch {
		case prev == nil && next == nil:
			return seqBase
		case prev == nil:
			if next.seq >= seqGap {
				return next.seq - seqGap
			}
		case next == nil:
			if prev.seq <= ^uint64(0)-seqGap {
				return prev.seq + seqGap
			}
		default:
			if gap := next.seq - prev.seq; gap >= 2 {
				return prev.seq + gap/2
			}
		}
		p.renumber()
	}
}

// renumber reassigns evenly-gapped keys to the whole list. Relative order
// is preserved, so the seq-sorted buckets stay sorted without a rebuild.
//
//lint:requires mu/memDesc.owner
func (p *portal) renumber() {
	seq := seqBase
	for e := p.head; e != nil; e = e.next {
		e.seq = seq
		seq += seqGap
	}
}

// indexAdd places me into its index bucket.
//
//lint:requires mu/memDesc.owner
func (p *portal) indexAdd(me *matchEntry) {
	switch classify(me) {
	case idxExact:
		if p.exact == nil {
			p.exact = make(map[exactKey][]*matchEntry)
		}
		k := exactKey{me.matchBits, me.matchID.NID, me.matchID.PID}
		p.exact[k] = seqInsert(p.exact[k], me)
	case idxAnyInit:
		if p.anyInit == nil {
			p.anyInit = make(map[types.MatchBits][]*matchEntry)
		}
		p.anyInit[me.matchBits] = seqInsert(p.anyInit[me.matchBits], me)
	default:
		p.residual = seqInsert(p.residual, me)
	}
}

// indexRemove drops me from its index bucket.
//
//lint:requires mu/memDesc.owner
func (p *portal) indexRemove(me *matchEntry) {
	switch classify(me) {
	case idxExact:
		k := exactKey{me.matchBits, me.matchID.NID, me.matchID.PID}
		if s := seqRemove(p.exact[k], me); len(s) == 0 {
			delete(p.exact, k)
		} else {
			p.exact[k] = s
		}
	case idxAnyInit:
		if s := seqRemove(p.anyInit[me.matchBits], me); len(s) == 0 {
			delete(p.anyInit, me.matchBits)
		} else {
			p.anyInit[me.matchBits] = s
		}
	default:
		p.residual = seqRemove(p.residual, me)
	}
}

// seqInsert adds me to a seq-sorted bucket slice.
//
//lint:requires portal.mu/memDesc.owner
func seqInsert(s []*matchEntry, me *matchEntry) []*matchEntry {
	i := sort.Search(len(s), func(i int) bool { return s[i].seq > me.seq })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = me
	return s
}

// seqRemove deletes me from a seq-sorted bucket slice.
//
//lint:requires portal.mu/memDesc.owner
func seqRemove(s []*matchEntry, me *matchEntry) []*matchEntry {
	i := sort.Search(len(s), func(i int) bool { return s[i].seq >= me.seq })
	for i < len(s) && s[i] != me {
		i++
	}
	if i == len(s) {
		return s
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	return s[:len(s)-1]
}
