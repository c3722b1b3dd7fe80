// Package arena provides chunked typed arenas for the resource records on
// the million-endpoint path (docs/PERF.md §7): match entries and memory
// descriptors live in a few large slabs instead of one heap object each,
// so 10⁶ match entries cost the garbage collector a handful of spans to
// track rather than a million individually-marked allocations.
//
// Entries have stable addresses for their whole lifetime (chunks are never
// copied or freed), which is what lets internal/rcu publish raw pointers
// to them. Reuse is the subtle part: an RCU reader may still hold a
// pointer to an entry that was just released, so a released entry must not
// be rewritten until every such reader is provably gone. The arena gets
// that proof from a Gate (rcu.Guards): released entries park on a limbo
// list and move to the free list when a Get observes a reader-free moment
// (Quiescent). A Get that observes none leaves them parked and carves a
// fresh slot when the free list is empty, which costs memory and never
// safety: under reader windows so dense that no Get ever sees such a
// moment, limbo grows rather than being reused.
package arena

import "sync"

// Gate proves that no read-side critical section that began before the
// gated entries were released is still running. rcu.Guards implements it.
type Gate interface {
	// Quiescent reports whether an instant with no reader inside a window
	// was just observed — sufficient to recycle everything released
	// before the call.
	Quiescent() bool
}

// firstChunk is the capacity of an arena's first chunk; each subsequent
// chunk doubles. Small arenas (a process with a dozen match entries — the
// common case at 10⁵ endpoints) stay at one 16-entry slab; a million-entry
// arena reaches its size in ~17 chunk allocations.
const firstChunk = 16

// Arena is a typed arena with free-list reuse. The zero value is ready to
// use, with no gate. All methods are safe for concurrent use; the internal
// mutex is control-plane only (Get/Put run at attach/unlink time, never per
// message).
type Arena[T any] struct {
	mu     sync.Mutex
	chunks [][]T //lint:guardedby mu  slabs; entry addresses are stable forever
	used   int   //lint:guardedby mu  entries handed out of the newest chunk
	free   []*T  //lint:guardedby mu  reusable now
	limbo  []*T  //lint:guardedby mu  released, awaiting a quiescent moment
	live   int   //lint:guardedby mu

	// gate defers reuse until a quiescent moment; nil means entries are
	// reusable immediately (no concurrent readers exist by construction).
	gate Gate
}

// SetGate installs the reclamation gate. Call it before the first Put.
func (a *Arena[T]) SetGate(g Gate) {
	a.mu.Lock()
	a.gate = g
	a.mu.Unlock()
}

// reclaim moves every parked entry to the free list when the gate observes
// a reader-free moment: all of them were released before it.
//
//lint:requires mu
func (a *Arena[T]) reclaim() {
	if len(a.limbo) == 0 || !a.gate.Quiescent() {
		return
	}
	a.free = append(a.free, a.limbo...)
	a.limbo = a.limbo[:0]
}

// Get returns a zeroed entry. It first gives parked entries a chance to
// recycle, then reuses a free slot when one is available and grows the
// arena by one doubling chunk otherwise. Every entry handed out must come
// back through exactly one Put; core's tests check at each State's teardown
// that the live count matches its tables.
func (a *Arena[T]) Get() *T {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reclaim()
	a.live++
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		var zero T
		*p = zero
		return p
	}
	if len(a.chunks) == 0 || a.used == len(a.chunks[len(a.chunks)-1]) {
		a.chunks = append(a.chunks, make([]T, firstChunk<<uint(len(a.chunks))))
		a.used = 0
	}
	c := a.chunks[len(a.chunks)-1]
	p := &c[a.used]
	a.used++
	return p
}

// Put releases an entry for eventual reuse. With a gate installed the
// entry parks on the limbo list (a reader may still hold it); without one
// it becomes immediately reusable. The caller must have made the entry
// unreachable first — for rcu-published entries, by releasing its table
// slot (generation bump) before Put.
func (a *Arena[T]) Put(p *T) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.live--
	if a.gate != nil {
		a.limbo = append(a.limbo, p)
		return
	}
	a.free = append(a.free, p)
}

// Live reports the entries handed out and not yet Put.
func (a *Arena[T]) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}
