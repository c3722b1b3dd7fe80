// Package eventq implements Portals event queues.
//
// §4.8: "Event queues are circular, which prevents indexing out of bounds.
// The higher level protocol needs to ensure that there are enough event
// slots and the rate of event consumption is able to keep up with the rate
// of event production to avoid missing events."
//
// Producers (the delivery engine) never block on the application: posting
// into a full queue overwrites the oldest unconsumed slot, and the consumer
// is told about the overrun through ErrEQDropped on its next Get — the exact
// failure mode the spec gives higher-level protocols to design around.
//
// A Queue is that circular buffer under one mutex: a post and a get each
// hold it for one slot copy and a counter step (docs/PERF.md §6 counts how
// rarely two posts meet there). Blocking consumers have one wait path, the
// Parker (parker.go), which core's counting events share.
package eventq

import (
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

// Queue is a fixed-capacity circular event queue. All methods are safe for
// concurrent use by one or more producers and consumers.
//
// Invariant, under mu: produced - consumed ≤ len(ring). A post into a full
// queue advances consumed past the oldest event before it takes its slot.
type Queue struct {
	ring []Event // allocated by New; its elements are guarded by mu
	park *Parker // every post wakes it; Close closes it

	mu sync.Mutex
	//lint:guardedby mu
	produced, consumed uint64
	// overrun records that a Post overwrote unconsumed events since the
	// last Get.
	//lint:guardedby mu
	overrun bool
	//lint:guardedby mu
	closed bool
}

// New allocates a queue with the given number of event slots. Sizes below
// one are raised to one.
func New(slots int) *Queue {
	if slots < 1 {
		slots = 1
	}
	return &Queue{ring: make([]Event, slots), park: NewParker()}
}

// Cap returns the number of event slots.
func (q *Queue) Cap() int { return len(q.ring) }

// Post appends an event. It never blocks on the application and never
// fails; if the queue is full the oldest unconsumed event is overwritten
// (circular semantics). Post on a closed queue is a no-op.
//
// The delivery engine posts events on every message.
func (q *Queue) Post(ev Event) { q.post(ev, true) }

// PostIfSpace posts ev only if doing so would not overwrite an unconsumed
// event, reporting whether the event was (logically) posted. The space
// check and the post are one hold of the lock, so two racing PostIfSpace
// calls for the last slot cannot both succeed. On a closed queue it returns
// true and discards the event, matching Post's no-op semantics.
func (q *Queue) PostIfSpace(ev Event) bool { return q.post(ev, false) }

// post is Post (overwrite) and PostIfSpace; it reports whether ev was taken
// or discarded by a closed queue.
func (q *Queue) post(ev Event, overwrite bool) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return true
	}
	n := uint64(len(q.ring))
	full := q.produced-q.consumed == n
	if full {
		if !overwrite {
			q.mu.Unlock()
			return false
		}
		q.consumed++
		q.overrun = true
	}
	ev.Sequence = q.produced
	q.ring[q.produced%n] = ev
	q.produced++
	q.mu.Unlock()
	if full {
		overwritten.Add(1)
	}
	posted.Add(1)
	trace.Record(trace.StageEventPost,
		uint32(ev.Initiator.NID), uint32(ev.Initiator.PID), ev.MsgSeq, uint64(ev.Type))
	q.park.Wake()
	return true
}

// Pending returns the number of unconsumed events.
func (q *Queue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int(q.produced - q.consumed)
}

// Get removes and returns the oldest pending event without blocking.
//
// Errors: ErrEQEmpty if nothing is pending; ErrEQDropped if the producer
// lapped the consumer — in that case the returned event IS valid (it is the
// oldest event that survived) and the consumer has been resynchronized, so
// subsequent Gets behave normally. ErrClosed after Close once drained.
func (q *Queue) Get() (ev Event, err error) {
	err = q.get(&ev)
	return ev, err
}

// get is Get filling *ev in place, left untouched unless an event is taken.
func (q *Queue) get(ev *Event) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.consumed == q.produced {
		if q.closed {
			return types.ErrClosed
		}
		return types.ErrEQEmpty
	}
	*ev = q.ring[q.consumed%uint64(len(q.ring))]
	q.consumed++
	if q.overrun {
		// Overrun: older events were overwritten since the last Get.
		q.overrun = false
		return types.ErrEQDropped
	}
	return nil
}

// Wait blocks until an event is available (or the queue is closed) and
// returns it, with the same ErrEQDropped convention as Get.
func (q *Queue) Wait() (ev Event, err error) {
	err = q.wait(&ev, 0)
	return ev, err
}

// Poll waits up to d for an event. On timeout it returns ErrEQEmpty.
// A non-positive d makes Poll equivalent to Get.
func (q *Queue) Poll(d time.Duration) (ev Event, err error) {
	if d <= 0 {
		return q.Get()
	}
	err = q.wait(&ev, d)
	return ev, err
}

// wait is Wait (d <= 0) and Poll; after Close a late event beats ErrClosed.
func (q *Queue) wait(ev *Event, d time.Duration) error {
	w := q.park.Begin()
	for {
		if err := q.get(ev); err != types.ErrEQEmpty {
			return err
		}
		if q.park.Park(&w, d) == types.ErrTimeout {
			return types.ErrEQEmpty
		}
	}
}

// Close wakes all waiters. Pending events remain retrievable; once drained,
// Get and Wait return ErrClosed. Posts after Close are discarded.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.park.Close()
}

// Process-wide event-ring telemetry. Package-level (rather than per-queue)
// because queues are created and torn down with every MD/ME binding; the
// interesting signal — how often the §4.8 circular overwrite fires — is
// global.
var (
	posted      atomic.Int64 // events made visible to consumers
	overwritten atomic.Int64 // unconsumed events dropped by the overwrite path
)

// RegisterMetrics exposes the package-wide event-ring counters.
func RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	r.CounterFunc("portals_eventq_posted_total",
		"events made visible to consumers", ls, posted.Load)
	r.CounterFunc("portals_eventq_overwritten_total",
		"unconsumed events overwritten by the circular full-queue path (§4.8)", ls, overwritten.Load)
}
