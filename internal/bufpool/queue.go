package bufpool

// Queue is an unbounded FIFO of owned messages on a growable ring: a head
// buffer each and, for a message whose body is lent (Lend), that body. The
// slide-and-append idiom (q = q[1:] to pop, append to push) gives up one
// slot of capacity per pop, so a queue that hovers at depth one reallocates
// on nearly every push, and its backing array keeps every popped buffer
// reachable until it is replaced. A ring keeps its capacity, allocates only
// when the backlog outgrows it, and clears each slot as it pops.
//
// The zero value is an empty queue. A Queue is not safe for concurrent use;
// callers guard it with the lock that guards the rest of their state.
type Queue struct {
	ring []message // len is zero or a power of two
	head int       // index of the oldest message
	n    int       // messages queued
}

type message struct{ head, body *Buf }

// Len reports how many messages are queued.
func (q *Queue) Len() int { return q.n }

// Push appends a message, taking ownership of head and body (nil: none)
// until Pop hands them back.
func (q *Queue) Push(head, body *Buf) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = message{head, body}
	q.n++
}

// Pop removes and returns the oldest message, or nils when the queue is
// empty. Ownership moves to the caller.
func (q *Queue) Pop() (head, body *Buf) {
	if q.n == 0 {
		return nil, nil
	}
	m := q.ring[q.head]
	q.ring[q.head] = message{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return m.head, m.body
}

// grow doubles the ring, unwrapping the queued buffers to its front.
func (q *Queue) grow() {
	size := 2 * len(q.ring)
	if size == 0 {
		size = 8
	}
	// The ring grows only when the backlog outgrows it; a steady queue
	// reuses its slots.
	ring := make([]message, size)
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = ring, 0
}
