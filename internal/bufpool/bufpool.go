// Package bufpool provides the shared buffer pool behind the fast receive
// path: ack/reply encoding in internal/core, outbound transmission in
// internal/nicsim, and the per-packet copy in internal/transport/simnet all
// draw from (and return to) the same size-classed sync.Pool, so the
// steady-state delivery goroutine allocates nothing.
//
// Ownership rules (docs/PERF.md spells out the full contract): exactly one
// owner at a time; whoever calls Get must arrange exactly one Release once
// the bytes have been copied onward or written out. A buffer that is never
// released is merely garbage-collected (a future pool miss, not a leak).
// The contents of a fresh buffer are undefined — callers overwrite the
// whole length they asked for.
//
// The one-owner contract is machine-checked by portalsvet's ownership
// pass (docs/LINT.md):
//
//lint:resource bufpool.Get -> Buf.Release
package bufpool

import (
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
	class int8 // size-class index; -1 marks an unpooled (oversized) buffer
	fresh bool // allocated by this Get rather than reused from the pool
}

// Bytes returns the buffer's contents: exactly the n bytes requested from
// Get. The slice is invalid after Release.
func (b *Buf) Bytes() []byte { return b.b }

// Reused reports whether this buffer came out of the pool rather than from
// a fresh allocation — the per-interface pool-hit counters feed off it.
func (b *Buf) Reused() bool { return !b.fresh }

// Release returns the buffer to its size class. Releasing an oversized
// (unpooled) buffer is a no-op. The caller must not touch Bytes afterwards;
// the next Get may hand the same memory to another goroutine.
//
//lint:noalloc the release path returns memory; it must not create any
func (b *Buf) Release() {
	if b == nil || b.class < 0 {
		return
	}
	puts.Add(1)
	b.b = b.b[:cap(b.b)]
	classes[b.class].Put(b)
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
		return &Buf{b: make([]byte, n), class: -1, fresh: true}
	}
	c := classFor(n)
	//lint:ignore noalloc the pools have no New hook; Pool.Get here only reuses (a nil return is the miss below)
	if v := classes[c].Get(); v != nil {
		b := v.(*Buf)
		b.b = b.b[:n]
		b.fresh = false
		hits.Add(1)
		return b
	}
	//lint:ignore noalloc pool miss: the one-time warmup allocation the steady state amortizes away
	return &Buf{b: make([]byte, n, 1<<(minClassBits+c)), class: int8(c), fresh: true}
}

// Usage reports the cumulative pool traffic: total Gets, how many of those
// were satisfied from the pool, and total Releases back into it.
func Usage() (getCount, hitCount, putCount int64) {
	return gets.Load(), hits.Load(), puts.Load()
}
