// Package bufpool provides the shared buffer pool behind the fast receive
// path: ack/reply encoding in internal/core, outbound transmission in
// internal/nicsim, and message reassembly in internal/rtscts all draw from
// (and return to) the same size-classed sync.Pool, so the steady-state
// delivery goroutine allocates nothing.
//
// Ownership rules (docs/PERF.md spells out the full contract): a buffer is
// reference-counted, and there is one Release per Get or Retain. Get hands
// out the first reference; a stage that must keep the bytes alive past the
// call that showed them to it — a fabric whose in-flight packets are windows
// of the sender's message — takes its own with Retain; the memory goes back
// to the pool when the last reference is released. A reference is a promise
// to read, never to write: once a buffer is shared its bytes do not change.
// A buffer that is never released is merely garbage-collected (a future
// pool miss, not a leak). The contents of a fresh buffer are undefined —
// callers overwrite the whole length they asked for.
//
// The contract is machine-checked by portalsvet's ownership pass
// (docs/LINT.md), which holds every Get and every Retain to its Release:
//
//lint:resource bufpool.Get -> Buf.Release
package bufpool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from 256 B to 1 MiB, so a bulk message
// (a 256 KiB put plus its wire header) rides pooled memory from the
// initiator's gather to the target's delivery; requests above the largest
// class fall back to a plain allocation and are never pooled. What an idle
// class can pin is bounded by sync.Pool itself: a buffer nobody asked for
// across two garbage collections is dropped.
const (
	minClassBits = 8
	numClasses   = 13
	maxPooled    = 1 << (minClassBits + numClasses - 1)
)

var classes [numClasses]sync.Pool

// Package-level traffic counters, so the pool hit rate is observable no
// matter which subsystem is calling (sync/atomic per the atomicsonly rule).
var (
	gets atomic.Int64
	hits atomic.Int64
	puts atomic.Int64
)

// Buf is a pooled byte buffer. The zero value is not usable; obtain one
// from Get and hand it back with Release.
type Buf struct {
	b     []byte
	refs  atomic.Int32 // references not yet released; Get hands out the first
	class int8         // size-class index; -1 marks an unpooled (oversized) buffer
	fresh bool         // allocated by this Get rather than reused from the pool
}

// Bytes returns the buffer's contents: exactly the n bytes requested from
// Get. The slice is invalid after Release.
func (b *Buf) Bytes() []byte { return b.b }

// Reused reports whether this buffer came out of the pool rather than from
// a fresh allocation — the per-interface pool-hit counters feed off it.
func (b *Buf) Reused() bool { return !b.fresh }

// Retain takes one more reference to the buffer and returns it: the memory
// now outlives the caller's own Release, until the new reference is released
// too. Only the holder of a live reference may call it — a buffer whose last
// reference is gone may already be somebody else's, and Retain panics rather
// than resurrect it. Retain of nil is nil, as Release of nil is nothing.
//
//lint:returns-owned
//lint:noalloc one atomic add
func (b *Buf) Retain() *Buf {
	if b != nil && b.refs.Add(1) <= 1 {
		panic(refError{op: "Retain", class: b.class})
	}
	return b
}

// Release gives up one reference; the last one returns the buffer to its
// size class (for an oversized, unpooled buffer there is nothing to return).
// The caller must not touch Bytes afterwards; the next Get may hand the same
// memory to another goroutine. A Release beyond the last reference would put
// the same memory in the pool twice, for two later owners; it panics.
//
//lint:noalloc the release path returns memory; it must not create any
func (b *Buf) Release() {
	if b == nil {
		return
	}
	switch n := b.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic(refError{op: "Release", class: b.class})
	}
	if b.class < 0 {
		return
	}
	puts.Add(1)
	b.b = b.b[:cap(b.b)]
	classes[b.class].Put(b)
}

// refError is the panic value of a reference-count violation: op was called
// on a buffer of size class class that had no reference left.
type refError struct {
	op    string
	class int8
}

func (e refError) Error() string {
	if e.class < 0 {
		return fmt.Sprintf("bufpool: %s of an unpooled buffer with no reference left", e.op)
	}
	return fmt.Sprintf("bufpool: %s of a %d-byte-class buffer with no reference left", e.op, 1<<(minClassBits+int(e.class)))
}

// classFor returns the smallest size class holding n bytes (n ≤ maxPooled).
func classFor(n int) int {
	c := 0
	for 1<<(minClassBits+c) < n {
		c++
	}
	return c
}

// Get returns a buffer of length n, reusing pooled memory when a buffer of
// n's size class is available.
//
//lint:noalloc steady state is pool hits; the misses below are the warmup
func Get(n int) *Buf {
	gets.Add(1)
	if n > maxPooled {
		//lint:ignore noalloc jumbo buffers are deliberately unpooled; callers sized for the fast path never hit this
		b := &Buf{b: make([]byte, n), class: -1, fresh: true}
		b.refs.Store(1)
		return b
	}
	c := classFor(n)
	//lint:ignore noalloc the pools have no New hook; Pool.Get here only reuses (a nil return is the miss below)
	if v := classes[c].Get(); v != nil {
		b := v.(*Buf)
		b.b = b.b[:n]
		b.fresh = false
		b.refs.Store(1)
		hits.Add(1)
		return b
	}
	//lint:ignore noalloc pool miss: the one-time warmup allocation the steady state amortizes away
	b := &Buf{b: make([]byte, n, 1<<(minClassBits+c)), class: int8(c), fresh: true}
	b.refs.Store(1)
	return b
}

// Usage reports the cumulative pool traffic in buffers, not references:
// total Gets, how many of those were satisfied from the pool, and how many
// buffers their last Release has returned to it.
func Usage() (getCount, hitCount, putCount int64) {
	return gets.Load(), hits.Load(), puts.Load()
}
