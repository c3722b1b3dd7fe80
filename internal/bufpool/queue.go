package bufpool

// Queue is an unbounded FIFO of owned buffers on a growable ring. The
// slide-and-append idiom (q = q[1:] to pop, append to push) gives up one
// slot of capacity per pop, so a queue that hovers at depth one reallocates
// on nearly every push, and its backing array keeps every popped buffer
// reachable until it is replaced. A ring keeps its capacity, allocates only
// when the backlog outgrows it, and clears each slot as it pops.
//
// The zero value is an empty queue. A Queue is not safe for concurrent use;
// callers guard it with the lock that guards the rest of their state.
type Queue struct {
	ring []*Buf // len is zero or a power of two
	head int    // index of the oldest buffer
	n    int    // buffers queued
}

// Len reports how many buffers are queued.
func (q *Queue) Len() int { return q.n }

// Push appends b, taking ownership of it until Pop hands it back.
//
//lint:consumes b
func (q *Queue) Push(b *Buf) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = b
	q.n++
}

// Pop removes and returns the oldest buffer, or nil when the queue is
// empty. Ownership moves to the caller.
//
//lint:returns-owned
func (q *Queue) Pop() *Buf {
	if q.n == 0 {
		return nil
	}
	b := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return b
}

// grow doubles the ring, unwrapping the queued buffers to its front.
func (q *Queue) grow() {
	size := 2 * len(q.ring)
	if size == 0 {
		size = 8
	}
	//lint:ignore noalloc the ring grows only when the backlog outgrows it; a steady queue reuses its slots
	ring := make([]*Buf, size)
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = ring, 0
}
