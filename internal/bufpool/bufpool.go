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
// A Buf can also be lent memory rather than pooled memory (Buf.Lend): a
// put's body, which is the sender's own memory descriptor. It is referenced
// and released like any other Buf, but its last Release hands it back to its
// lender instead of to a pool, and that return is what completes the send.
//
// Every test binary of a package that pools checks the contract at exit:
// package pooltest fails it unless each buffer taken — pooled or lent — has
// had its last Release, and unless every goroutine its tests started has
// ended (docs/LINT.md).
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
// matter which subsystem is calling (sync/atomic, as hot-path counters are).
// A loan is not pool traffic: it never hits or misses, so it is counted in
// a pair of its own.
var (
	gets     atomic.Int64
	hits     atomic.Int64
	puts     atomic.Int64
	lent     atomic.Int64
	returned atomic.Int64
)

// Buf is a pooled byte buffer, or lent memory (Lend). The zero value is
// usable only as the header of a loan; obtain a pooled Buf from Get, and
// hand either back with Release.
type Buf struct {
	b     []byte
	segs  [][]byte     // lent memory in several segments; b is nil then
	size  int          // the length of segs
	ret   func()       // lent memory: called by the last Release; nil for pooled memory
	refs  atomic.Int32 // references not yet released; Get hands out the first
	class int8         // size-class index; -1 marks an unpooled (oversized) buffer, -2 lent memory
}

// Bytes returns the buffer's contents: exactly the n bytes requested from
// Get, or the memory a Lend was given in one piece. Lent memory in several
// segments has no one slice: Bytes is nil, and Window reads it. The slice is
// invalid after Release.
func (b *Buf) Bytes() []byte { return b.b }

// Len is the buffer's length in bytes, every segment counted; 0 for nil.
func (b *Buf) Len() int {
	switch {
	case b == nil:
		return 0
	case b.segs != nil:
		return b.size
	}
	return len(b.b)
}

// Window returns the bytes of the buffer from offset off on, at most max of
// them and never more than one segment holds: a fragment cut from it is a
// slice of the memory itself. It is empty at the end, and for nil.
func (b *Buf) Window(off, max int) []byte {
	if b == nil {
		return nil
	}
	if b.segs == nil {
		return b.b[off:min(len(b.b), off+max)]
	}
	for _, seg := range b.segs {
		if off < len(seg) {
			return seg[off:min(len(seg), off+max)]
		}
		off -= len(seg)
	}
	return nil
}

// Retain takes one more reference to the buffer and returns it: the memory
// now outlives the caller's own Release, until the new reference is released
// too. Only the holder of a live reference may call it — a buffer whose last
// reference is gone may already be somebody else's, and Retain panics rather
// than resurrect it. Retain of nil is nil, as Release of nil is nothing.
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
	if ret := b.ret; ret != nil {
		returned.Add(1)
		b.b, b.segs, b.ret = nil, nil, nil
		ret() // the header is the lender's again: b is not touched after
		return
	}
	puts.Add(1)
	if b.class < 0 {
		return
	}
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
	if e.class == lentClass {
		return fmt.Sprintf("bufpool: %s of lent memory with no reference left", e.op)
	}
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
func Get(n int) *Buf {
	gets.Add(1)
	if n > maxPooled {
		// Jumbo buffers are deliberately unpooled; callers sized for the fast
		// path never hit this.
		b := &Buf{b: make([]byte, n), class: -1}
		b.refs.Store(1)
		return b
	}
	c := classFor(n)
	// The pools have no New hook: a nil Get is the miss below.
	if v := classes[c].Get(); v != nil {
		b := v.(*Buf)
		b.b = b.b[:n]
		b.refs.Store(1)
		hits.Add(1)
		return b
	}
	// A miss is the warm-up allocation the steady state amortizes away.
	b := &Buf{b: make([]byte, n, 1<<(minClassBits+c)), class: int8(c)}
	b.refs.Store(1)
	return b
}

// lentClass is the class of a lent Buf, for refError.
const lentClass = -2

// Lend makes b — a header its lender owns, zero or back from its last loan —
// a Buf over memory that is not the pool's, and returns it: mem, or, when
// segs is non-nil, the concatenation of segs. Nothing is copied. The Buf is
// referenced and released like a pooled one, and counted by Loans, not by
// Usage; its last Release calls ret instead of pooling anything, on the
// releasing goroutine — an upcall from whoever read the memory last to its
// owner, in the way a fabric's delivery handler is one, so the releaser
// must hold none of its own locks then. A lender keeps the header in the record of the
// loan, and ret is bound to that record, so a loan takes nothing from a
// pool. A lent Buf is never empty: a lender with nothing to lend keeps it.
func (b *Buf) Lend(mem []byte, segs [][]byte, ret func()) *Buf {
	lent.Add(1)
	b.b, b.segs, b.size, b.ret, b.class = mem, segs, 0, ret, lentClass
	if segs != nil {
		b.b = nil
		for _, s := range segs {
			b.size += len(s)
		}
	}
	b.refs.Store(1)
	return b
}

// Lent reports whether b is lent memory (Lend) rather than the pool's.
func (b *Buf) Lent() bool { return b != nil && b.class == lentClass }

// Join returns a pooled buffer holding head's bytes followed by body's, for
// a fabric that must carry a message in one piece, and gives up head: the
// body is copied into head's own spare capacity when head is a pooled
// buffer nobody else holds and it has the room — a small put's header
// buffer does — and head and body into a new buffer otherwise, head then
// being released. body (nil: none) is not released: the caller does that
// once the joined message is on its way, so that whatever a lent body's
// return sets off comes after the message it completes.
func Join(head, body *Buf) *Buf {
	h, total := len(head.b), len(head.b)+body.Len()
	j := head
	if head.class < 0 || total > cap(head.b) || head.refs.Load() != 1 {
		j = Get(total)
		copy(j.b, head.b)
		head.Release()
	}
	j.b = j.b[:total]
	for n := h; n < total; {
		n += copy(j.b[n:], body.Window(n-h, total-n))
	}
	return j
}

// Usage reports the cumulative pool traffic in buffers, not references:
// total Gets, how many of those were satisfied from the pool, and how many
// buffers have had their last Release (an oversized one counts, though it
// is not pooled): gets − puts is the number still held. Loans are not in it.
func Usage() (getCount, hitCount, putCount int64) {
	return gets.Load(), hits.Load(), puts.Load()
}

// Loans reports the cumulative loans (Lend) and how many of them have had
// their last Release: lentCount − returnedCount is the number still out.
func Loans() (lentCount, returnedCount int64) {
	return lent.Load(), returned.Load()
}
