// Package rcu provides the read-copy-update primitives behind the
// million-endpoint read path (docs/PERF.md §7): readers resolve resources
// with atomic loads only — no locks, no allocation — while writers
// serialize among themselves and publish changes as new epochs.
//
// Three primitives, all generalizations of the PR-3 nicsim procMap pattern
// (an immutable map behind an atomic.Pointer, copy-on-write on mutation):
//
//   - Table[T]: a chunked slot table addressed by (index, generation).
//     Lookup is two atomic loads and a seqlock-style re-validation;
//     allocation/release go through a small writer mutex and publish each
//     slot's state word atomically. Chunks double in size and are
//     published once via an atomic pointer, so the table grows to millions
//     of slots without ever copying or locking the read side.
//
//   - Map[K, V]: the procMap pattern itself — an immutable Go map swapped
//     whole. Readers Get with one atomic load; writers (externally
//     serialized) copy, mutate, and Store.
//
//   - Guards: one enter/exit counter pair that delimits read-side
//     critical sections. A writer that wants to recycle memory a reader
//     might still hold (arena-backed entries, internal/arena) parks it
//     until Quiescent() observes a moment with no reader inside a guard
//     window.
package rcu

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------- Table --

// Chunk c holds minChunk<<c slots, so chunk capacities double: 16, 32, 64…
// maxChunks chunks cover every uint32 index. Slot idx lives in chunk
// bits.Len32(idx/minChunk+1)-1 — the same geometric split as a growable
// deque — which keeps small tables at one 16-slot chunk while a
// million-slot table needs only ~17 chunk allocations ever.
const (
	minChunk  = 16
	maxChunks = 28

	// maxSlots is the first index NOT covered by the chunk geometry:
	// chunks 0..maxChunks-1 tile indices [0, minChunk·(2^maxChunks − 1)).
	// The top 16 values of the uint32 space (including 0xFFFFFFFF) would
	// map to chunk 28, one past the chunks array. Lookup takes its index
	// straight from a wire-decoded handle — an out-of-range value is
	// peer-controlled input, not a programming error — so Lookup/Release
	// treat such indices as misses and Alloc never hands them out.
	maxSlots = minChunk * ((1 << maxChunks) - 1)
)

// chunkOf maps a slot index to its (chunk, offset) coordinates.
func chunkOf(idx uint32) (c int, off uint32) {
	n := idx/minChunk + 1
	c = bits.Len32(n) - 1
	off = idx - minChunk*((1<<uint(c))-1)
	return c, off
}

// chunkStart is the first index of chunk c (inverse of chunkOf).
func chunkStart(c int) uint32 { return minChunk * ((1 << uint(c)) - 1) }

// tslot is one table slot. state packs (generation << 1) | live, so one
// atomic load tells a reader both whether the slot is live and which
// incarnation it holds; val is published separately. The release/alloc
// protocol (writers serialized under wmu):
//
//	release: state ← (gen+1)<<1       (dead, next generation)
//	         val   ← nil              (drop the reference for GC)
//	alloc:   val   ← v
//	         state ← gen<<1 | 1       (live — the publish)
//
// A reader validates state == want, loads val, and re-validates state.
// Go atomics are sequentially consistent, so if the re-validation still
// sees the wanted state, no release had been published when val was
// loaded — the value belongs to the wanted generation: a seqlock's
// stamp-check-read-recheck shape, with the generation as the stamp.
type tslot[T any] struct {
	state atomic.Uint64
	val   atomic.Pointer[T]
}

// Table is an epoch-published slot table: lock-free generation-checked
// reads, mutex-serialized writes. The zero value is ready to use (no
// capacity limit); Init sets one.
//
// The writer mutex is internal so the invariants are machine-checkable in
// isolation (portalsvet guardedby); callers that already serialize writers
// under their own lock (core.State.resMu) pay one uncontended lock per
// control-plane operation, which is noise next to the table copy it
// replaces.
type Table[T any] struct {
	wmu   sync.Mutex
	free  []uint32 //lint:guardedby wmu  released indices awaiting reuse
	next  uint32   //lint:guardedby wmu  first never-allocated index
	count int      //lint:guardedby wmu
	limit int      //lint:guardedby wmu  0 = unlimited

	chunks [maxChunks]atomic.Pointer[[]tslot[T]]
}

// Init sets the allocation limit (0 = unlimited). Call before first use.
func (t *Table[T]) Init(limit int) {
	t.wmu.Lock()
	t.limit = limit
	t.wmu.Unlock()
}

// chunk returns chunk c, allocating and publishing it if needed. Caller
// holds wmu (only writers extend the table).
//
//lint:requires wmu
func (t *Table[T]) chunk(c int) *[]tslot[T] {
	if ch := t.chunks[c].Load(); ch != nil {
		return ch
	}
	s := make([]tslot[T], minChunk<<uint(c))
	t.chunks[c].Store(&s)
	return &s
}

// Alloc reserves a slot for v and returns its (index, generation)
// coordinates; ok is false when the table is at its limit.
func (t *Table[T]) Alloc(v *T) (idx, gen uint32, ok bool) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.limit > 0 && t.count >= t.limit {
		return 0, 0, false
	}
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if t.next >= maxSlots {
			return 0, 0, false // index space exhausted
		}
		idx = t.next
		t.next++
	}
	c, off := chunkOf(idx)
	sl := &(*t.chunk(c))[off]
	gen = uint32(sl.state.Load() >> 1)
	sl.val.Store(v)
	sl.state.Store(uint64(gen)<<1 | 1) // publish: live at this generation
	t.count++
	return idx, gen, true
}

// Lookup resolves (index, generation) to the stored value with atomic
// loads only. It returns nil, false for dead slots, stale generations, and
// never-allocated indices.
//
// Handle resolution runs per message on the delivery path.
func (t *Table[T]) Lookup(idx, gen uint32) (*T, bool) {
	if idx >= maxSlots {
		return nil, false // out of chunk geometry — peer-controlled index
	}
	c, off := chunkOf(idx)
	ch := t.chunks[c].Load()
	if ch == nil {
		return nil, false
	}
	sl := &(*ch)[off]
	want := uint64(gen)<<1 | 1
	if sl.state.Load() != want {
		return nil, false
	}
	v := sl.val.Load()
	if sl.state.Load() != want {
		// A release (and possibly a reuse) was published between the two
		// state loads; v may belong to the wrong incarnation. Miss.
		return nil, false
	}
	return v, true
}

// Release frees the slot if (index, generation) names its live
// incarnation, bumping the generation so stale handles miss. It returns
// the value the slot held so the caller can reclaim it (readers inside a
// Guards window may still hold the pointer — defer reuse until quiescent).
func (t *Table[T]) Release(idx, gen uint32) (*T, bool) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if idx >= maxSlots {
		return nil, false // out of chunk geometry — never a valid handle
	}
	c, off := chunkOf(idx)
	ch := t.chunks[c].Load()
	if ch == nil || idx >= t.next {
		return nil, false
	}
	sl := &(*ch)[off]
	if sl.state.Load() != uint64(gen)<<1|1 {
		return nil, false
	}
	v := sl.val.Load()
	sl.state.Store(uint64(gen+1) << 1) // dead, next generation — readers miss from here on
	sl.val.Store(nil)
	t.free = append(t.free, idx)
	t.count--
	return v, true
}

// Count reports the number of live slots.
func (t *Table[T]) Count() int {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.count
}

// Each visits every live entry. It runs under the writer mutex, so it is
// consistent with respect to Alloc/Release (control-plane use: teardown,
// experiments).
func (t *Table[T]) Each(f func(*T)) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	for c := 0; chunkStart(c) < t.next; c++ {
		ch := t.chunks[c].Load()
		if ch == nil {
			continue
		}
		for i := range *ch {
			if chunkStart(c)+uint32(i) >= t.next {
				break
			}
			sl := &(*ch)[i]
			if sl.state.Load()&1 == 1 {
				f(sl.val.Load())
			}
		}
	}
}

// ------------------------------------------------------------------ Map --

// Map is the PR-3 procMap pattern, generalized: an immutable map behind an
// atomic pointer. Get is one atomic load and a map read with zero
// synchronization; mutators copy-on-write and swap. Mutators must be
// externally serialized (nicsim holds its node mutex; a lone goroutine
// needs nothing) — the cost of keeping the read side completely free.
// The zero value is an empty map.
type Map[K comparable, V any] struct {
	p atomic.Pointer[map[K]V]
}

// Get returns the value for k in the current epoch.
func (m *Map[K, V]) Get(k K) (V, bool) {
	mp := m.p.Load()
	if mp == nil {
		var zero V
		return zero, false
	}
	v, ok := (*mp)[k]
	return v, ok
}

// Len reports the size of the current epoch.
func (m *Map[K, V]) Len() int {
	mp := m.p.Load()
	if mp == nil {
		return 0
	}
	return len(*mp)
}

// snapshot returns the current epoch's map (nil-safe, read-only).
func (m *Map[K, V]) snapshot() map[K]V {
	if mp := m.p.Load(); mp != nil {
		return *mp
	}
	return nil
}

// Insert publishes a new epoch with k → v added; it returns false (and
// publishes nothing) if k is already present.
func (m *Map[K, V]) Insert(k K, v V) bool {
	cur := m.snapshot()
	if _, dup := cur[k]; dup {
		return false
	}
	next := make(map[K]V, len(cur)+1)
	for kk, vv := range cur {
		next[kk] = vv
	}
	next[k] = v
	m.p.Store(&next)
	return true
}

// Set publishes a new epoch with k → v, replacing any existing entry —
// the upsert Insert deliberately is not. Writers must be externally
// serialized, like every Map mutation.
func (m *Map[K, V]) Set(k K, v V) {
	cur := m.snapshot()
	next := make(map[K]V, len(cur)+1)
	for kk, vv := range cur {
		next[kk] = vv
	}
	next[k] = v
	m.p.Store(&next)
}

// Delete publishes a new epoch with k removed; it returns false (and
// publishes nothing) if k is absent.
func (m *Map[K, V]) Delete(k K) bool {
	cur := m.snapshot()
	if _, ok := cur[k]; !ok {
		return false
	}
	next := make(map[K]V, len(cur))
	for kk, vv := range cur {
		if kk != k {
			next[kk] = vv
		}
	}
	m.p.Store(&next)
	return true
}

// Update copies the current epoch, applies f to the copy, and publishes
// it — the bulk-mutation path. Registering n entries one Insert at a time
// is O(n²) in copies; one Update is O(n).
func (m *Map[K, V]) Update(f func(map[K]V)) {
	cur := m.snapshot()
	next := make(map[K]V, len(cur)+1)
	for kk, vv := range cur {
		next[kk] = vv
	}
	f(next)
	m.p.Store(&next)
}

// Clear publishes an empty epoch.
func (m *Map[K, V]) Clear() {
	next := make(map[K]V)
	m.p.Store(&next)
}

// Range calls f for every entry of the current epoch until f returns
// false. The iteration sees one consistent epoch.
func (m *Map[K, V]) Range(f func(K, V) bool) {
	for k, v := range m.snapshot() {
		if !f(k, v) {
			return
		}
	}
}

// --------------------------------------------------------------- Guards --

// cacheLine is the pad on each side of Guards' counters.
const cacheLine = 64

// Guards delimits read-side critical sections for deferred reclamation:
// a reader brackets the window between resolving a handle and validating
// the entry under its owner lock with Enter/Exit; a reclaimer takes a
// Quiescent observation as proof that no reader holds a pointer obtained
// before the resources in question were released.
//
// The argument is the classic asymmetric-counter one (userspace RCU):
// Enter bumps in, Exit bumps out, and Quiescent loads out BEFORE in. With
// sequentially-consistent atomics, out == in can only be observed if every
// Enter that happened before the in load had its Exit happen before the
// out load. Readers the check missed entered after it and cannot hold a
// previously-released pointer: the release (generation bump) was published
// before the check, so their later Lookup misses.
//
// Every put's initiator path writes both counters, and delivery lanes read
// State fields next to them on every message, so the pair sits on a cache
// line of its own: the pads keep any neighbouring field off the lines in
// and out touch, wherever the struct lands.
type Guards struct {
	_   [cacheLine]byte
	in  atomic.Int64
	out atomic.Int64
	_   [cacheLine]byte
}

// Enter opens a read-side window. Enter and Exit run per message on the
// delivery path. Core's tests check the pairing: a State they tear down
// must be Quiescent.
func (g *Guards) Enter() { g.in.Add(1) }

// Exit closes a window opened by Enter.
func (g *Guards) Exit() { g.out.Add(1) }

// Quiescent reports whether a reader-free moment was observed. False
// negatives are fine (the caller retries later); false positives cannot
// happen (see the type comment).
func (g *Guards) Quiescent() bool {
	out := g.out.Load() // before in: see the type comment
	return out == g.in.Load()
}
