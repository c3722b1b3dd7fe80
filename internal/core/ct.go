package core

// Counting events and triggered operations — the Portals 4 offload
// primitives (PtlCTAlloc/PtlTriggeredPut and friends) grafted onto this
// 3.0 engine, because they are the smallest mechanism that lets a
// COLLECTIVE progress with zero host involvement: completions increment
// counters on the delivery path, counters crossing a pre-armed threshold
// fire new operations on that same path, and the fired operations'
// completions increment the next counter in the chain. internal/coll's
// triggered barrier/broadcast/allreduce are nothing but these chains.
//
// Concurrency design (docs/PROTOCOL.md "Counting events", docs/PERF.md):
//
//   - A counter (ctr) is an ordinary heap object resolved lock-free from
//     its slot table, exactly like an event queue — no pins window, stale
//     handles simply miss.
//   - The hot-path increment (ctInc) is atomics-only and callable with any
//     delivery lock held: an atomic add, a one-token waiter wake, and one
//     atomic load of nextFire (the lowest armed threshold, cached so the
//     common "nothing armed" case costs a single predicted branch).
//   - Crossing nextFire does NOT fire inline — the increment often runs
//     under a portal lock, and firing needs descriptor locks. Instead the
//     counter is pushed (once: pendingFlag CAS) onto a Treiber stack,
//     State.trigPending, and HandleIncomingInto drains the stack AFTER the
//     message's locks are released, still on the delivery-lane goroutine.
//     That keeps firing inside the lanes (application bypass, §5.1) with
//     no lock-order edges: ctr.mu is only ever the sole lock held. That
//     isolation is machine-checked — the declaration below makes any
//     future edge into or out of ctr.mu a lockorder finding:
//
//lint:lockrank ctr.mu sole
//   - Armed operations live on a threshold-sorted singly-linked list under
//     ctr.mu (control-path lock: arming and firing only). fireCounter pops
//     every op whose threshold the success count has reached, releasing
//     ctr.mu around each execution, and re-publishes nextFire on exit.
//     pendingFlag is cleared under ctr.mu BEFORE the scan, so a concurrent
//     crossing re-queues the counter rather than being lost.
//
// Ordering: ops on one counter fire in threshold order (equal thresholds
// in arming order), per the Portals 4 rule. Ops armed on different
// counters may fire on different lanes concurrently — there is no
// cross-counter ordering, matching the spec's per-counter guarantee.

import (
	"fmt"
	"time"

	"sync"
	"sync/atomic"

	"repro/internal/eventq"
	"repro/internal/obs/trace"
	"repro/internal/types"
)

// ctNever is nextFire's value when no triggered operation is armed.
const ctNever = ^uint64(0)

// trigKind discriminates what an armed triggered operation does on fire.
type trigKind uint8

const (
	trigPut trigKind = 1 + iota
	trigGet
	trigCTInc
)

// trigOp is one armed triggered operation, threshold-linked under ctr.mu.
type trigOp struct {
	next      *trigOp //lint:guardedby ctr.mu
	threshold uint64
	kind      trigKind

	// trigPut / trigGet: the deferred StartPut/StartGet arguments.
	md     types.Handle
	ack    types.AckRequest
	target types.ProcessID
	ptl    types.PtlIndex
	cookie types.ACIndex
	bits   types.MatchBits
	offset uint64

	// trigCTInc: the counter to bump and by how much.
	ct  types.Handle
	inc types.CTValue
}

// ctr is one counting event. Success/failure are the §4.8-style
// accumulators; the rest schedules triggered operations and wakes waiters.
type ctr struct {
	success atomic.Uint64 //lint:guardedby atomic
	failure atomic.Uint64 //lint:guardedby atomic

	// nextFire caches the lowest armed threshold (ctNever when none), so
	// the per-message increment can skip the scheduling path with one
	// atomic load. Updated under mu; read lock-free by ctInc. The
	// flag-then-data race with a concurrent arm is closed by arm()
	// re-checking success AFTER publishing the new nextFire.
	nextFire atomic.Uint64 //lint:guardedby atomic

	// pendingFlag marks the counter as queued on State.trigPending (at most
	// one queue entry per counter). pendNext is the intrusive stack link,
	// owned exclusively by whoever won the pendingFlag CAS until the drain
	// pops it; the release/acquire pair on the stack head publishes it.
	pendingFlag atomic.Bool //lint:guardedby atomic
	pendNext    *ctr

	mu     sync.Mutex
	armed  *trigOp //lint:guardedby mu  threshold-sorted (stable) singly-linked list
	armedN int     //lint:guardedby mu
	closed bool    //lint:guardedby mu

	// park is where CTWait blocks: every increment wakes it, and it closes
	// on CTFree/State.Close so waiters never hang on a dead counter.
	park eventq.Parker
}

// close marks the counter dead, discards its armed operations (they never
// fire — the unlink-while-armed rule: freeing a counter must never launch
// its pending operations), and releases waiters. Idempotent. It returns how
// many ops were discarded so callers account TrigDropped.
func (c *ctr) close() int {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0
	}
	c.closed = true
	dropped := c.armedN
	c.armed = nil
	c.armedN = 0
	c.nextFire.Store(ctNever)
	c.mu.Unlock()
	c.park.Close()
	return dropped
}

// ctRes resolves a counter handle — atomic loads only, no locks, safe on
// the per-message path with any delivery lock held. Counters are ordinary
// heap objects (never arena recycled), so as with event queues no pins
// window is needed: a stale handle simply misses and the completion goes
// uncounted, the same way an event for a vanished queue is dropped.
//
//lint:noalloc counter resolution runs per counted completion
func (s *State) ctRes(h types.Handle) *ctr {
	if !h.IsValid() {
		return nil
	}
	c, ok := s.cts.lookup(h)
	if !ok {
		return nil
	}
	return c
}

// ctDelta returns the success increment one counted completion contributes:
// 1 operation, or mlength bytes under MDCTBytes.
//
//lint:noalloc per-completion arithmetic on the delivery path
func ctDelta(opts types.MDOptions, mlength uint64) uint64 {
	if opts&types.MDCTBytes != 0 {
		return mlength
	}
	return 1
}

// ctInc is THE hot-path increment: called from finishOperation, recvAck,
// recvReply, and StartPut with portal/owner locks held, and from the
// application-facing CTInc/CTSet. Atomics only; if the new success value
// reaches the lowest armed threshold the counter is queued for the next
// FireTriggered drain (it never fires inline — see the package comment).
//
//lint:noalloc counter increments ride the per-message delivery path
func (s *State) ctInc(c *ctr, succ, fail uint64) {
	var v uint64
	if succ != 0 {
		v = c.success.Add(succ)
	}
	if fail != 0 {
		c.failure.Add(fail)
	}
	s.counters.CTInc()
	c.park.Wake()
	if succ != 0 && v >= c.nextFire.Load() {
		s.pushPending(c)
	}
}

// ctIncMD routes one counted completion on descriptor options opts into
// the counter named by ct, if the enabling bit is set. The no-CT case is
// a single branch (invalid handle short-circuits before the table lookup).
//
//lint:noalloc completion-to-counter routing on the delivery path
func (s *State) ctIncMD(ct types.Handle, opts, want types.MDOptions, mlength uint64) {
	if opts&want == 0 {
		return
	}
	c := s.ctRes(ct)
	if c == nil {
		return
	}
	s.ctInc(c, ctDelta(opts, mlength), 0)
}

// pushPending queues the counter for the next FireTriggered drain, at most
// once: the pendingFlag CAS makes concurrent crossings idempotent, and the
// Treiber push publishes pendNext via the stack head's release store.
//
//lint:noalloc triggered-op scheduling rides the delivery path
func (s *State) pushPending(c *ctr) {
	if !c.pendingFlag.CompareAndSwap(false, true) {
		return
	}
	for {
		head := s.trigPending.Load()
		c.pendNext = head
		if s.trigPending.CompareAndSwap(head, c) {
			return
		}
	}
}

// FireTriggered drains every counter whose success count crossed an armed
// threshold, executes the ready triggered operations, and appends the wire
// messages they produce to out for the caller to transmit. It runs at the
// tail of HandleIncomingInto — i.e. on the nicsim delivery lanes, after
// the current message's locks are released — and in the application-side
// NI methods that can advance a counter (a fire is transmitted by whoever
// caused the crossing). The loop re-swaps until the stack stays empty so
// TriggeredCTInc cascades launched by a fire are executed in the same
// drain, on the same goroutine.
//
//lint:noalloc the firing path runs inside the delivery lanes
func (s *State) FireTriggered(out []Outbound) []Outbound {
	for s.trigPending.Load() != nil {
		head := s.trigPending.Swap(nil)
		for c := head; c != nil; {
			next := c.pendNext
			c.pendNext = nil
			out = s.fireCounter(c, out)
			c = next
		}
	}
	return out
}

// fireCounter pops and executes every armed operation whose threshold the
// success count has reached, in threshold order. pendingFlag clears under
// mu BEFORE the scan so a crossing that races with the drain re-queues the
// counter instead of being lost; ctr.mu is released around each execution
// so firing takes descriptor/portal locks with no lock-order edge from
// ctr.mu (it is always the only lock held).
//
//lint:noalloc threshold scan on the firing path
func (s *State) fireCounter(c *ctr, out []Outbound) []Outbound {
	c.mu.Lock()
	c.pendingFlag.Store(false)
	for !c.closed {
		op := c.armed
		if op == nil || op.threshold > c.success.Load() {
			break
		}
		c.armed = op.next
		c.armedN--
		op.next = nil
		c.mu.Unlock()
		out = s.fireOp(op, out)
		c.mu.Lock()
	}
	if c.armed == nil {
		c.nextFire.Store(ctNever)
	} else {
		c.nextFire.Store(c.armed.threshold)
	}
	c.mu.Unlock()
	return out
}

// fireOp executes one triggered operation. Exactly-once: the op was
// unlinked from its counter before this call and is never re-armed. A fire
// that fails (descriptor unlinked or exhausted, counter freed, state
// closed) is dropped and counted — there is no initiator to surface the
// error to, which is the same posture §4.8 takes for stale acks/replies.
//
//lint:noalloc triggered operations execute on the delivery lanes
func (s *State) fireOp(op *trigOp, out []Outbound) []Outbound {
	if trace.Enabled() {
		trace.Record(trace.StageTrigFire,
			uint32(s.self.NID), uint32(s.self.PID), op.threshold, uint64(op.kind))
	}
	switch op.kind {
	case trigPut:
		o, err := s.startPut(op.md, op.ack, op.target, op.ptl, op.cookie, op.bits, op.offset)
		if err != nil {
			s.counters.TrigDropped()
			return out
		}
		s.counters.TrigFired()
		//lint:ignore noalloc amortized append into the lane's reusable scratch, as on the ack path
		return append(out, o)
	case trigGet:
		o, err := s.startGet(op.md, op.target, op.ptl, op.cookie, op.bits, op.offset)
		if err != nil {
			s.counters.TrigDropped()
			return out
		}
		s.counters.TrigFired()
		//lint:ignore noalloc amortized append into the lane's reusable scratch, as on the ack path
		return append(out, o)
	case trigCTInc:
		c := s.ctRes(op.ct)
		if c == nil {
			s.counters.TrigDropped()
			return out
		}
		s.counters.TrigFired()
		s.ctInc(c, op.inc.Success, op.inc.Failure)
	}
	return out
}

// CTAlloc creates a counting event (PtlCTAlloc), zero-valued.
func (s *State) CTAlloc() (types.Handle, error) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.closed.Load() {
		return types.InvalidHandle, types.ErrClosed
	}
	c := &ctr{park: eventq.NewParker()}
	c.nextFire.Store(ctNever)
	return s.cts.alloc(c)
}

// CTFree releases a counting event (PtlCTFree). Waiters wake with
// ErrClosed. Triggered operations still armed on the counter are DISCARDED
// without firing — a drain that already holds the counter observes closed
// under ctr.mu and stops. Descriptors still routing completions into the
// freed handle simply stop counting (the stale handle misses).
func (s *State) CTFree(h types.Handle) error {
	s.resMu.Lock()
	c, ok := s.cts.lookup(h)
	if ok {
		s.cts.release(h)
	}
	s.resMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	for n := c.close(); n > 0; n-- {
		s.counters.TrigDropped()
	}
	return nil
}

// lookupCT resolves a counter handle or fails — the application-side
// (erroring) flavor of ctRes.
func (s *State) lookupCT(h types.Handle) (*ctr, error) {
	if s.closed.Load() {
		return nil, types.ErrClosed
	}
	c, ok := s.cts.lookup(h)
	if !ok {
		//lint:ignore noalloc stale-handle path: the error names the handle
		return nil, fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	return c, nil
}

// CTGet reads the counter (PtlCTGet) — two atomic loads, no locks.
func (s *State) CTGet(h types.Handle) (types.CTValue, error) {
	c, err := s.lookupCT(h)
	if err != nil {
		return types.CTValue{}, err
	}
	return types.CTValue{Success: c.success.Load(), Failure: c.failure.Load()}, nil
}

// CTSet overwrites the counter (PtlCTSet). Setting success at or beyond an
// armed threshold fires the operation, same as an increment would — the
// caller must drain FireTriggered (the portals layer does).
func (s *State) CTSet(h types.Handle, v types.CTValue) error {
	c, err := s.lookupCT(h)
	if err != nil {
		return err
	}
	c.success.Store(v.Success)
	c.failure.Store(v.Failure)
	s.counters.CTInc()
	c.park.Wake()
	if v.Success >= c.nextFire.Load() {
		s.pushPending(c)
	}
	return nil
}

// CTInc adds to the counter (PtlCTInc) from the application side.
func (s *State) CTInc(h types.Handle, v types.CTValue) error {
	c, err := s.lookupCT(h)
	if err != nil {
		return err
	}
	s.ctInc(c, v.Success, v.Failure)
	return nil
}

// CTArmed reports how many triggered operations are currently armed on the
// counter — observability for tests and the trig gauge.
func (s *State) CTArmed(h types.Handle) (int, error) {
	c, err := s.lookupCT(h)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	n := c.armedN
	c.mu.Unlock()
	return n, nil
}

// CTWait blocks until the success count reaches threshold (PtlCTWait),
// returning the value read. A non-zero failure count observed first
// returns the value with ErrCTFailure; a freed counter or closed state
// returns ErrClosed. timeout <= 0 waits forever; otherwise ErrTimeout.
//
//lint:noalloc a blocking CTWait costs the application no allocation
func (s *State) CTWait(h types.Handle, threshold uint64, timeout time.Duration) (types.CTValue, error) {
	c, err := s.lookupCT(h)
	if err != nil {
		return types.CTValue{}, err
	}
	var w eventq.Wait
	for {
		v := types.CTValue{Success: c.success.Load(), Failure: c.failure.Load()}
		if v.Success >= threshold || v.Failure != 0 {
			// Always pass the token on: with several waiters parked on one
			// counter a single increment must not strand the rest.
			c.park.End(&w, true)
			if v.Success >= threshold {
				return v, nil
			}
			//lint:ignore noalloc failure path: the error carries what was read
			return v, fmt.Errorf("%w: %v waiting for %d", types.ErrCTFailure, v, threshold)
		}
		if err := c.park.Park(&w, timeout); err == types.ErrTimeout {
			//lint:ignore noalloc timeout path: the error carries what was read
			return v, fmt.Errorf("%w: %v after %v waiting for %d", err, v, timeout, threshold)
		} else if err != nil {
			return v, err
		}
	}
}

// arm inserts op into ct's threshold-sorted armed list (stable for equal
// thresholds: arming order) and schedules an immediate fire if the counter
// has already crossed. The caller drains FireTriggered afterwards — late
// arming therefore fires on the arming goroutine, not a lane, which is the
// correct (if less glamorous) place: the crossing already happened.
func (s *State) arm(ct types.Handle, op *trigOp) error {
	c, err := s.lookupCT(ct)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", types.ErrInvalidHandle, ct)
	}
	pp := &c.armed
	for *pp != nil && (*pp).threshold <= op.threshold {
		pp = &(*pp).next
	}
	op.next = *pp
	*pp = op
	c.armedN++
	c.nextFire.Store(c.armed.threshold)
	c.mu.Unlock()
	s.counters.TrigArmed()
	// Re-check AFTER publishing nextFire: this closes the race with an
	// increment that read the old nextFire just before the store.
	if c.success.Load() >= op.threshold {
		s.pushPending(c)
	}
	return nil
}

// TriggeredPut arms a put (PtlTriggeredPut): StartPut(md, ...) executes on
// the delivery lanes when ct's success count reaches threshold. The
// descriptor is resolved AT FIRE TIME — arming does not pin it, and a fire
// against an unlinked or exhausted descriptor is dropped with a counter.
func (s *State) TriggeredPut(md types.Handle, ack types.AckRequest, target types.ProcessID,
	ptl types.PtlIndex, cookie types.ACIndex, bits types.MatchBits, offset uint64,
	ct types.Handle, threshold uint64) error {
	return s.arm(ct, &trigOp{
		kind: trigPut, threshold: threshold,
		md: md, ack: ack, target: target, ptl: ptl, cookie: cookie, bits: bits, offset: offset,
	})
}

// TriggeredGet arms a get (PtlTriggeredGet), same contract as TriggeredPut.
func (s *State) TriggeredGet(md types.Handle, target types.ProcessID,
	ptl types.PtlIndex, cookie types.ACIndex, bits types.MatchBits, offset uint64,
	ct types.Handle, threshold uint64) error {
	return s.arm(ct, &trigOp{
		kind: trigGet, threshold: threshold,
		md: md, target: target, ptl: ptl, cookie: cookie, bits: bits, offset: offset,
	})
}

// TriggeredCTInc arms a counter increment (PtlTriggeredCTInc): when on's
// success count reaches threshold, ct is incremented by inc — the chaining
// primitive that wires tree stages together without a message.
func (s *State) TriggeredCTInc(ct types.Handle, inc types.CTValue,
	on types.Handle, threshold uint64) error {
	return s.arm(on, &trigOp{kind: trigCTInc, threshold: threshold, ct: ct, inc: inc})
}
