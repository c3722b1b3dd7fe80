package portals

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/nicsim"
)

// NI is a process's handle on one network interface — the object every
// other call hangs off, as returned by PtlNIInit. All methods are safe
// for concurrent use; the delivery engine shares the underlying state.
type NI struct {
	machine *Machine
	state   *core.State
	node    *nicsim.Node
	self    ProcessID
	closed  atomic.Bool
}

// ID returns this process's identifier (PtlGetId).
func (ni *NI) ID() ProcessID { return ni.self }

// Limits returns the granted resource limits.
func (ni *NI) Limits() Limits { return ni.state.Limits() }

// Status snapshots the interface counters — including the dropped-message
// count of §4.8, split by reason (PtlNIStatus generalization).
func (ni *NI) Status() Stats { return ni.state.Counters().Snapshot() }

// MEAttach creates a match entry on the match list at portal index ptl
// (PtlMEAttach). matchID restricts accepted initiators (AnyProcess for
// none); bits must match the incoming match bits except where ignore has
// 1-bits. pos selects head (Before) or tail (After) of the list.
func (ni *NI) MEAttach(ptl PtlIndex, matchID ProcessID, bits, ignore MatchBits,
	unlink UnlinkOption, pos InsertPosition) (Handle, error) {
	return ni.state.MEAttach(ptl, matchID, bits, ignore, unlink, pos)
}

// MEInsert creates a match entry adjacent to an existing one (PtlMEInsert).
func (ni *NI) MEInsert(base Handle, matchID ProcessID, bits, ignore MatchBits,
	unlink UnlinkOption, pos InsertPosition) (Handle, error) {
	return ni.state.MEInsert(base, matchID, bits, ignore, unlink, pos)
}

// MEUnlink removes a match entry and frees its attached descriptors
// (PtlMEUnlink).
func (ni *NI) MEUnlink(me Handle) error { return ni.state.MEUnlink(me) }

// MDAttach appends a memory descriptor to a match entry's list
// (PtlMDAttach). With unlinkOp == Unlink the descriptor auto-unlinks when
// its threshold is spent, cascading to the match entry per Figure 4.
func (ni *NI) MDAttach(me Handle, md MD, unlinkOp UnlinkOption) (Handle, error) {
	return ni.state.MDAttach(me, md, unlinkOp)
}

// MDBind creates a free-floating descriptor for initiator-side operations
// (PtlMDBind).
func (ni *NI) MDBind(md MD, unlinkOp UnlinkOption) (Handle, error) {
	return ni.state.MDBind(md, unlinkOp)
}

// MDUnlink removes a descriptor (PtlMDUnlink); it fails with ErrMDInUse
// while a get reply is outstanding.
func (ni *NI) MDUnlink(md Handle) error { return ni.state.MDUnlink(md) }

// MDUpdate atomically replaces a descriptor, refusing if testEQ (when
// valid) has pending events (PtlMDUpdate).
func (ni *NI) MDUpdate(md Handle, newMD MD, testEQ Handle) error {
	return ni.state.MDUpdate(md, newMD, testEQ)
}

// MDStatus reports a descriptor's remaining threshold and local offset.
func (ni *NI) MDStatus(md Handle) (threshold int32, localOffset uint64, err error) {
	return ni.state.MDStatus(md)
}

// EQAlloc creates a circular event queue with the given slot count
// (PtlEQAlloc).
func (ni *NI) EQAlloc(slots int) (Handle, error) { return ni.state.EQAlloc(slots) }

// EQFree releases an event queue (PtlEQFree).
func (ni *NI) EQFree(eq Handle) error { return ni.state.EQFree(eq) }

// EQGet returns the next event without blocking (PtlEQGet); ErrEQEmpty if
// none. ErrEQDropped signals the queue overran — the returned event is
// still valid.
func (ni *NI) EQGet(eq Handle) (Event, error) { return ni.state.EQGet(eq) }

// EQWait blocks for the next event (PtlEQWait).
func (ni *NI) EQWait(eq Handle) (Event, error) { return ni.state.EQWait(eq) }

// EQPoll waits up to d for an event, then returns ErrEQEmpty.
func (ni *NI) EQPoll(eq Handle, d time.Duration) (Event, error) {
	return ni.state.EQPoll(eq, d)
}

// EQPending reports the number of unconsumed events.
func (ni *NI) EQPending(eq Handle) (int, error) { return ni.state.EQPending(eq) }

// ACEntry installs an access-control entry (PtlACEntry): requests carrying
// cookie index admit initiators matching id (wildcards allowed) on portal
// index ptl (PtlIndexAny for all).
func (ni *NI) ACEntry(index ACIndex, id ProcessID, ptl PtlIndex) error {
	return ni.state.ACL().Set(index, id, ptl)
}

// Put transmits the descriptor's region to the target (PtlPut, Figure 1).
// The payload is matched at the target by (ptl, bits) under the cookie's
// access check; offset applies when the matched descriptor manages
// offsets remotely. The network reads the region where it is: the send
// event arrives once it has done so for the last time, and until then the
// region must not change and the descriptor is in use. With AckReq an
// acknowledgment event arrives on the descriptor's event queue once the
// target delivers the data.
func (ni *NI) Put(md Handle, ack AckRequest, target ProcessID,
	ptl PtlIndex, cookie ACIndex, bits MatchBits, offset uint64) error {
	if ni.closed.Load() {
		return ErrClosed
	}
	out, err := ni.state.LendPut(md, ack, target, ptl, cookie, bits, offset)
	if err != nil {
		return err
	}
	if err := ni.node.Send(out); err != nil {
		return err
	}
	// A 0-byte put completes in LendPut, so its send-side counting event
	// (MDCTSend) may have crossed a threshold; a lent body's return
	// transmits what its own completion fires.
	return ni.drainTriggered()
}

// Get requests data from the target into the descriptor (PtlGet,
// Figure 2). Completion is the EventReply on the descriptor's queue; the
// descriptor cannot be unlinked until then.
func (ni *NI) Get(md Handle, target ProcessID,
	ptl PtlIndex, cookie ACIndex, bits MatchBits, offset uint64) error {
	if ni.closed.Load() {
		return ErrClosed
	}
	out, err := ni.state.StartGet(md, target, ptl, cookie, bits, offset)
	if err != nil {
		return err
	}
	return ni.node.Send(out)
	// (Gets carry no MDCTSend counting — the completion is the reply.)
}

// CTAlloc creates a counting event (PtlCTAlloc): a pair of success/failure
// counters that MD options route completions into, and that triggered
// operations arm against. Counters have no queue to overflow and no waiter
// requirement — the lightweight completion primitive of Portals 4 §3.14.
func (ni *NI) CTAlloc() (Handle, error) { return ni.state.CTAlloc() }

// CTFree releases a counting event (PtlCTFree). Triggered operations still
// armed on it are discarded without firing; CTWait callers wake with
// ErrClosed.
func (ni *NI) CTFree(ct Handle) error { return ni.state.CTFree(ct) }

// CTGet reads a counter without blocking (PtlCTGet).
func (ni *NI) CTGet(ct Handle) (CTValue, error) { return ni.state.CTGet(ct) }

// CTSet overwrites a counter (PtlCTSet), waking waiters and firing any
// triggered operations the new value crosses.
func (ni *NI) CTSet(ct Handle, v CTValue) error {
	if err := ni.state.CTSet(ct, v); err != nil {
		return err
	}
	return ni.drainTriggered()
}

// CTInc adds to a counter from the application side (PtlCTInc). Triggered
// operations crossed by the increment fire on this goroutine.
func (ni *NI) CTInc(ct Handle, v CTValue) error {
	if err := ni.state.CTInc(ct, v); err != nil {
		return err
	}
	return ni.drainTriggered()
}

// CTWait blocks until the counter's success count reaches threshold
// (PtlCTWait), returning the value read. A failure increment observed
// first returns ErrCTFailure.
func (ni *NI) CTWait(ct Handle, threshold uint64) (CTValue, error) {
	return ni.state.CTWait(ct, threshold, 0)
}

// CTPoll waits up to d for the counter to reach threshold, then returns
// ErrTimeout with the value read (PtlCTPoll, single-counter form).
func (ni *NI) CTPoll(ct Handle, threshold uint64, d time.Duration) (CTValue, error) {
	return ni.state.CTWait(ct, threshold, d)
}

// CTArmed reports how many triggered operations are armed on the counter.
func (ni *NI) CTArmed(ct Handle) (int, error) { return ni.state.CTArmed(ct) }

// TriggeredPut arms a put that executes when ct's success count reaches
// threshold (PtlTriggeredPut). The put runs on whichever delivery lane
// crosses the threshold — no host goroutine is involved — with the same
// semantics as Put at fire time. The descriptor is resolved when the
// operation fires, not when it is armed.
func (ni *NI) TriggeredPut(md Handle, ack AckRequest, target ProcessID,
	ptl PtlIndex, cookie ACIndex, bits MatchBits, offset uint64,
	ct Handle, threshold uint64) error {
	if ni.closed.Load() {
		return ErrClosed
	}
	if err := ni.state.TriggeredPut(md, ack, target, ptl, cookie, bits, offset, ct, threshold); err != nil {
		return err
	}
	// Late arming: if the counter had already crossed, the op fired on this
	// goroutine and its outbound is waiting to be transmitted.
	return ni.drainTriggered()
}

// TriggeredGet arms a get against ct at threshold (PtlTriggeredGet).
func (ni *NI) TriggeredGet(md Handle, target ProcessID,
	ptl PtlIndex, cookie ACIndex, bits MatchBits, offset uint64,
	ct Handle, threshold uint64) error {
	if ni.closed.Load() {
		return ErrClosed
	}
	if err := ni.state.TriggeredGet(md, target, ptl, cookie, bits, offset, ct, threshold); err != nil {
		return err
	}
	return ni.drainTriggered()
}

// TriggeredCTInc arms a counter increment: when on's success count reaches
// threshold, ct is incremented by inc (PtlTriggeredCTInc). This is the
// chaining primitive — tree stages wire together through counters without
// any host involvement.
func (ni *NI) TriggeredCTInc(ct Handle, inc CTValue, on Handle, threshold uint64) error {
	if ni.closed.Load() {
		return ErrClosed
	}
	if err := ni.state.TriggeredCTInc(ct, inc, on, threshold); err != nil {
		return err
	}
	return ni.drainTriggered()
}

// drainTriggered transmits triggered operations that fired on this
// application goroutine — late arming against an already-crossed counter,
// or an app-side CTInc/CTSet crossing a threshold. Lane-side fires never
// come through here; HandleIncomingInto drains them on the delivery path.
func (ni *NI) drainTriggered() error {
	out := ni.state.FireTriggered(nil)
	var first error
	for i := range out {
		if err := ni.node.Send(out[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close releases the interface (PtlNIFini): the process stops receiving
// (subsequent messages are dropped as bad-target) and all event queues
// wake their waiters.
func (ni *NI) Close() error {
	if ni.closed.Swap(true) {
		return nil
	}
	ni.node.RemoveProcess(ni.self.PID)
	ni.state.Close()
	return nil
}

// closeState tears down without touching the node (used by Machine.Close,
// which closes nodes itself).
func (ni *NI) closeState() {
	if ni.closed.Swap(true) {
		return
	}
	ni.state.Close()
}
