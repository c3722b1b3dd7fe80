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
// list and migrate to the free list only once a grace period covering
// their release has elapsed — either an instantaneous reader-free moment
// (Quiescent) or, under reader traffic dense enough that such a moment is
// never observable, enough of the Gate's parity-flip grace periods
// (Advance). The latter makes reclamation progress unconditional: limbo
// cannot grow without bound while Get churn continues, because every Get
// drives the grace machinery forward.
package arena

import "sync"

// Gate provides grace periods for deferred reuse: proof that no read-side
// critical section that began before the gated entries were released is
// still running. rcu.Guards implements it.
type Gate interface {
	// Quiescent reports whether an instant with no reader inside a window
	// was just observed — sufficient to recycle everything released
	// before the call, but not guaranteed to ever return true under
	// continuously overlapping readers.
	Quiescent() bool
	// Advance tries to complete one grace period and returns the number
	// completed so far (monotone). See graceLag for how the counter turns
	// into a reclamation proof.
	Advance() uint64
}

// graceLag is how far the Gate's grace counter must move past a limbo
// batch's seal stamp before the batch is recyclable. The batch's entries
// were all released (unreachable to new lookups) before the stamp was
// read, so per rcu.Guards.Advance's contract, completions stamp+2 and
// stamp+3 scanned entirely after those releases — and, covering both
// parities, account for every reader that could have obtained a batch
// pointer. Readers the scans missed entered after them, hence after the
// releases, and miss in the table.
const graceLag = 3

// firstChunk is the capacity of an arena's first chunk; each subsequent
// chunk doubles. Small arenas (a process with a dozen match entries — the
// common case at 10⁵ endpoints) stay at one 16-entry slab; a million-entry
// arena reaches its size in ~17 chunk allocations.
const firstChunk = 16

// limboBatch is a sealed set of released entries awaiting grace periods.
type limboBatch[T any] struct {
	entries []*T
	stamp   uint64 // Gate grace count when sealed; recyclable at stamp+graceLag
}

// Arena is a typed arena with free-list reuse. All methods are safe for
// concurrent use; the internal mutex is control-plane only (Get/Put run at
// attach/unlink time, never per message).
type Arena[T any] struct {
	mu     sync.Mutex
	chunks [][]T           //lint:guardedby mu  slabs; entry addresses are stable forever
	used   int             //lint:guardedby mu  entries handed out of the newest chunk
	free   []*T            //lint:guardedby mu  reusable now
	limbo  []*T            //lint:guardedby mu  open batch: released since the last seal
	aging  []limboBatch[T] //lint:guardedby mu  sealed batches awaiting grace periods
	live   int             //lint:guardedby mu

	// gate defers reuse until a grace period has elapsed; nil means
	// entries are reusable immediately (no concurrent readers exist by
	// construction).
	gate Gate
}

// New returns an arena whose released entries wait on gate before reuse.
// gate may be nil when no lock-free reader can hold entry pointers.
func New[T any](gate Gate) *Arena[T] {
	return &Arena[T]{gate: gate}
}

// SetGate installs the reclamation gate; for arenas embedded in a larger
// struct (core.State) that cannot call New.
func (a *Arena[T]) SetGate(g Gate) {
	a.mu.Lock()
	a.gate = g
	a.mu.Unlock()
}

// reclaim moves parked entries to the free list once a grace period
// covering their release has elapsed, and advances the grace machinery so
// parked entries keep making progress toward reuse even when no global
// reader-free instant is ever observable.
//
//lint:requires mu
func (a *Arena[T]) reclaim() {
	if a.gate == nil || (len(a.limbo) == 0 && len(a.aging) == 0) {
		return
	}
	// Fast path: an instantaneous reader-free moment covers everything
	// parked so far — all of it was released before this observation.
	if a.gate.Quiescent() {
		for i := range a.aging {
			a.free = append(a.free, a.aging[i].entries...)
			a.aging[i] = limboBatch[T]{}
		}
		a.aging = a.aging[:0]
		a.free = append(a.free, a.limbo...)
		a.limbo = a.limbo[:0]
		return
	}
	// Slow path: per-parity grace periods. Recycle every sealed batch the
	// counter has moved graceLag past, then seal the open batch at the
	// current count (merging into the newest batch when the count hasn't
	// moved, so aging stays short between grace completions).
	d := a.gate.Advance()
	n := 0
	for _, b := range a.aging {
		if d >= b.stamp+graceLag {
			a.free = append(a.free, b.entries...)
		} else {
			a.aging[n] = b
			n++
		}
	}
	for i := n; i < len(a.aging); i++ {
		a.aging[i] = limboBatch[T]{}
	}
	a.aging = a.aging[:n]
	if len(a.limbo) > 0 {
		if n > 0 && a.aging[n-1].stamp == d {
			a.aging[n-1].entries = append(a.aging[n-1].entries, a.limbo...)
			a.limbo = a.limbo[:0]
		} else {
			a.aging = append(a.aging, limboBatch[T]{entries: a.limbo, stamp: d})
			a.limbo = nil
		}
	}
}

// Get returns a zeroed entry. It first gives parked entries a chance to
// recycle (every Get advances the reclamation machinery, so limbo drains
// even under continuous reader load), then reuses a free slot when one is
// available and grows the arena by one doubling chunk otherwise. Every
// entry handed out must come back through exactly one Put; core's tests
// check at each State's teardown that the live count matches its tables.
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
