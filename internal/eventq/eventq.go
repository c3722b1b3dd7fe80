// Package eventq implements Portals event queues.
//
// §4.8: "Event queues are circular, which prevents indexing out of bounds.
// The higher level protocol needs to ensure that there are enough event
// slots and the rate of event consumption is able to keep up with the rate
// of event production to avoid missing events."
//
// Producers (the delivery engine) never block: posting into a full queue
// overwrites the oldest unconsumed slot, and the consumer is told about the
// overrun through ErrEQDropped on its next Get — the exact failure mode the
// spec gives higher-level protocols to design around.
//
// The producer fast path is lock-free so concurrent delivery lanes posting
// to one queue do not serialize (docs/PERF.md §6): Post reserves a position
// with one CAS on the produced counter and stamps the slot seqlock-style —
// writeStamp while the payload is in flight, doneStamp once it is visible.
// The mutex is kept only for the consumer, the full-queue overwrite path,
// and Close. Blocking consumers have one wait path, the Parker (parker.go),
// which core's counting events share.
package eventq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
	"repro/internal/types"
)

// Event records one completed Portals operation (§4.8). Which fields are
// meaningful depends on Type; Sequence is a per-queue monotone counter.
type Event struct {
	Type      types.EventType
	Initiator types.ProcessID // who initiated the operation (for PUT/GET at the target)
	PtlIndex  types.PtlIndex
	MatchBits types.MatchBits
	RLength   uint64 // length requested on the wire
	MLength   uint64 // manipulated length: bytes actually moved (§4.7)
	Offset    uint64 // offset within the descriptor at which data landed
	MD        types.Handle
	UserPtr   any // the user_ptr of the memory descriptor involved
	Sequence  uint64
	// MsgSeq is the wire header's per-initiator message sequence number
	// (wire.Header.Seq); together with Initiator it keys the message's span
	// in the internal/obs/trace flight recorder. Zero for events that do not
	// belong to a traced message.
	MsgSeq uint64
}

// slot is one ring cell. seq carries the seqlock stamp for the cell's
// current occupant: writeStamp(p) while position p's event is being
// written, doneStamp(p) once it is complete. Zero means never written.
//
//lint:seqlock seq
type slot struct {
	seq atomic.Uint64
	ev  Event
}

func writeStamp(p uint64) uint64 { return 2*p + 1 }
func doneStamp(p uint64) uint64  { return 2*p + 2 }

// Queue is a fixed-capacity circular event queue. All methods are safe for
// concurrent use by one or more producers and consumers.
//
// Invariant: produced - consumed ≤ len(ring) at all times. The lock-free
// fast path only claims a position when there is space, which means the
// slot it writes was already consumed — so fast producers never overwrite
// live data and never contend with the consumer. Overwriting (the §4.8
// circular behaviour) happens only on the mutex slow path, which advances
// consumed past the victim first.
type Queue struct {
	ring     []slot
	produced atomic.Uint64 //lint:guardedby atomic
	consumed atomic.Uint64 //lint:guardedby atomic
	closed   atomic.Bool   //lint:guardedby atomic

	mu sync.Mutex // consumer, overwrite, and Close paths
	// overrun records that a Post overwrote unconsumed events since the
	// last Get.
	//lint:guardedby mu
	overrun bool
	park    Parker // every publish wakes it; Close closes it
}

// New allocates a queue with the given number of event slots. Sizes below
// one are raised to one.
func New(slots int) *Queue {
	if slots < 1 {
		slots = 1
	}
	return &Queue{ring: make([]slot, slots), park: NewParker()}
}

// Cap returns the number of event slots.
func (q *Queue) Cap() int { return len(q.ring) }

// Post appends an event. It never blocks on the application and never
// fails; if the queue is full the oldest unconsumed event is overwritten
// (circular semantics). Post on a closed queue is a no-op.
//
//lint:noalloc the delivery engine posts events on every message
func (q *Queue) Post(ev Event) {
	if q.closed.Load() {
		return
	}
	n := uint64(len(q.ring))
	for {
		pos := q.produced.Load()
		if pos-q.consumed.Load() >= n {
			q.postFull(ev)
			return
		}
		if q.produced.CompareAndSwap(pos, pos+1) {
			q.publish(pos, ev)
			return
		}
	}
}

// publish writes position pos's event into its slot and makes it visible.
// The caller owns pos (it won the CAS, or holds mu on the overwrite path).
func (q *Queue) publish(pos uint64, ev Event) {
	sl := &q.ring[pos%uint64(len(q.ring))]
	sl.seq.Store(writeStamp(pos))
	ev.Sequence = pos
	sl.ev = ev
	sl.seq.Store(doneStamp(pos))
	posted.Add(1)
	trace.Record(trace.StageEventPost,
		uint32(ev.Initiator.NID), uint32(ev.Initiator.PID), ev.MsgSeq, uint64(ev.Type))
	q.park.Wake()
}

// postFull is the full-queue slow path: under mu, drop the oldest
// unconsumed event to make room, then claim a position like the fast path.
// The CAS can still lose to concurrent fast producers (they do not take
// mu), in which case the freed slot went to one of them and we drop again.
func (q *Queue) postFull(ev Event) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed.Load() {
		return
	}
	n := uint64(len(q.ring))
	for {
		pos := q.produced.Load()
		if pos-q.consumed.Load() >= n {
			// Drop the oldest pending event. Its writer may still be in
			// flight (a reservation between stamps); wait for it so the
			// victim's slot write cannot tear ours. Holding mu here is fine:
			// publishing never takes mu.
			c := q.consumed.Load()
			sl := &q.ring[c%n]
			for sl.seq.Load() != doneStamp(c) {
				runtime.Gosched()
			}
			q.consumed.Store(c + 1)
			q.overrun = true
			overwritten.Add(1)
		}
		if q.produced.CompareAndSwap(pos, pos+1) {
			q.publish(pos, ev)
			return
		}
	}
}

// PostIfSpace posts ev only if doing so would not overwrite an unconsumed
// event, reporting whether the event was (logically) posted. The space
// check and the post are one atomic reservation — unlike a HasSpace/Post
// pair, two racing PostIfSpace calls for the last slot cannot both succeed.
// On a closed queue it returns true and discards the event, matching
// Post's no-op semantics.
//
//lint:noalloc ack/reply event posting rides the delivery path
func (q *Queue) PostIfSpace(ev Event) bool {
	r, ok := q.ReserveIfSpace()
	if !ok {
		return false
	}
	r.Publish(ev)
	return true
}

// Reservation is a claimed event slot awaiting its event. The zero value
// is inert (Publish is a no-op).
type Reservation struct {
	q      *Queue
	pos    uint64
	active bool
}

// ReserveIfSpace atomically claims the next event slot if the queue has
// space, so a caller can guarantee event delivery *before* performing the
// operation's side effects (the §4.8 reply rule: the reply is dropped —
// data unwritten — when the event queue is full). The reservation must be
// Published promptly: consumers and overwriting producers wait for it.
// On a closed queue it returns an inert reservation and ok=true, matching
// Post's closed no-op semantics.
//
//lint:noalloc slot reservation is a CAS loop on the delivery path
func (q *Queue) ReserveIfSpace() (r Reservation, ok bool) {
	if q.closed.Load() {
		return Reservation{}, true
	}
	n := uint64(len(q.ring))
	for {
		pos := q.produced.Load()
		if pos-q.consumed.Load() >= n {
			return Reservation{}, false
		}
		if q.produced.CompareAndSwap(pos, pos+1) {
			q.ring[pos%n].seq.Store(writeStamp(pos))
			return Reservation{q: q, pos: pos, active: true}, true
		}
	}
}

// Publish completes a reservation, making the event visible to consumers.
//
//lint:noalloc completes ReserveIfSpace on the delivery path
func (r Reservation) Publish(ev Event) {
	if r.active {
		r.q.publish(r.pos, ev) // restamps the slot ReserveIfSpace left open: same value
	}
}

// HasSpace reports whether a Post right now would not overwrite an
// unconsumed event. It is advisory under concurrency — use PostIfSpace or
// ReserveIfSpace when the answer must stay true through a subsequent post.
func (q *Queue) HasSpace() bool {
	// consumed is loaded first: both counters are monotone, so this orders
	// the subtraction conservatively (never reports phantom space).
	c := q.consumed.Load()
	return q.produced.Load()-c < uint64(len(q.ring))
}

// Pending returns the number of unconsumed events (clamped to capacity).
func (q *Queue) Pending() int {
	c := q.consumed.Load()
	n := q.produced.Load() - c
	if n > uint64(len(q.ring)) {
		n = uint64(len(q.ring))
	}
	return int(n)
}

// Get removes and returns the oldest pending event without blocking.
//
// Errors: ErrEQEmpty if nothing is pending; ErrEQDropped if the producer
// lapped the consumer — in that case the returned event IS valid (it is the
// oldest event that survived) and the consumer has been resynchronized, so
// subsequent Gets behave normally. ErrClosed after Close once drained.
//
//lint:noalloc the consumer's side of every completion
func (q *Queue) Get() (Event, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.getLocked()
}

//lint:requires mu
func (q *Queue) getLocked() (Event, error) {
	c := q.consumed.Load()
	if c == q.produced.Load() {
		if q.closed.Load() {
			return Event{}, types.ErrClosed
		}
		return Event{}, types.ErrEQEmpty
	}
	n := uint64(len(q.ring))
	sl := &q.ring[c%n]
	// The position is claimed but its event may still be in flight
	// (between stamps); wait for the publish. Publishing never takes mu,
	// so spinning under mu cannot deadlock.
	for sl.seq.Load() != doneStamp(c) {
		runtime.Gosched()
	}
	ev := sl.ev
	q.consumed.Store(c + 1)
	if q.overrun {
		// Overrun: older events were overwritten since the last Get.
		q.overrun = false
		return ev, types.ErrEQDropped
	}
	return ev, nil
}

// Wait blocks until an event is available (or the queue is closed) and
// returns it, with the same ErrEQDropped convention as Get.
//
//lint:noalloc a blocking EQWait costs the application no allocation
func (q *Queue) Wait() (Event, error) { return q.wait(0) }

// Poll waits up to d for an event. On timeout it returns ErrEQEmpty.
// A non-positive d makes Poll equivalent to Get.
//
//lint:noalloc a blocking EQPoll costs the application no allocation
func (q *Queue) Poll(d time.Duration) (Event, error) {
	if d <= 0 {
		return q.Get()
	}
	return q.wait(d)
}

// wait is Wait (d <= 0) and Poll. Several consumers may block at once: one
// that leaves with events still pending wakes the next.
func (q *Queue) wait(d time.Duration) (Event, error) {
	var w Wait
	for {
		ev, err := q.Get()
		if err != types.ErrEQEmpty {
			q.park.End(&w, q.Pending() > 0)
			return ev, err
		}
		if err := q.park.Park(&w, d); err == types.ErrTimeout {
			return Event{}, types.ErrEQEmpty
		} else if err != nil {
			return q.Get() // closed: a late event still beats ErrClosed
		}
	}
}

// Close wakes all waiters. Pending events remain retrievable; once drained,
// Get and Wait return ErrClosed. A Post racing Close may still land; that
// is the same window a hardware event queue has.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed.Load() {
		q.mu.Unlock()
		return
	}
	q.closed.Store(true)
	q.mu.Unlock()
	q.park.Close()
}

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool {
	return q.closed.Load()
}

// Process-wide event-ring telemetry. Package-level (rather than per-queue)
// because queues are created and torn down with every MD/ME binding; the
// interesting signal — how often the §4.8 circular overwrite fires — is
// global. Both bumps are single atomic adds on paths that already RMW.
var (
	posted      atomic.Int64 // events made visible (fast path + reservations)
	overwritten atomic.Int64 // unconsumed events dropped by the overwrite path
)

// RegisterMetrics exposes the package-wide event-ring counters.
func RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	r.CounterFunc("portals_eventq_posted_total",
		"events made visible to consumers", ls, posted.Load)
	r.CounterFunc("portals_eventq_overwritten_total",
		"unconsumed events overwritten by the circular full-queue path (§4.8)", ls, overwritten.Load)
}
