package types

import "errors"

// Error values mirroring the Portals 3.0 return codes. The spec returns
// ptl_err_t from every call; we return wrapped Go errors carrying the same
// distinctions so callers can errors.Is against them.
var (
	// ErrNotInitialized: the library (or the NI) has not been initialized.
	ErrNotInitialized = errors.New("portals: not initialized")
	// ErrInvalidHandle: the handle is malformed, stale, or of the wrong kind.
	ErrInvalidHandle = errors.New("portals: invalid handle")
	// ErrInvalidArgument: an argument is out of range (portal index beyond
	// the table, bad AC index, negative length, ...).
	ErrInvalidArgument = errors.New("portals: invalid argument")
	// ErrNoSpace: a table or queue is full (resource limits exceeded).
	ErrNoSpace = errors.New("portals: no space")
	// ErrEQEmpty: EQGet found no pending event.
	ErrEQEmpty = errors.New("portals: event queue empty")
	// ErrEQDropped: events were overwritten before being consumed; the
	// higher-level protocol failed to keep up (§4.8: "the higher level
	// protocol needs to ensure ... the rate of event consumption is able
	// to keep up").
	ErrEQDropped = errors.New("portals: event queue overrun, events dropped")
	// ErrMDInUse: MDUnlink was asked to remove a descriptor with pending
	// operations (e.g. an outstanding get reply).
	ErrMDInUse = errors.New("portals: memory descriptor in use")
	// ErrACViolation: the ACL rejected the request (only ever seen by the
	// target's drop counter, never by the initiator — Portals does not
	// send negative acknowledgments).
	ErrACViolation = errors.New("portals: access control violation")
	// ErrSegmentViolation: a descriptor's memory region is invalid.
	ErrSegmentViolation = errors.New("portals: segment violation")
	// ErrProcessNotFound: the target (nid,pid) does not exist or has not
	// initialized the interface.
	ErrProcessNotFound = errors.New("portals: target process not found")
	// ErrClosed: the object or the whole interface was torn down.
	ErrClosed = errors.New("portals: closed")
	// ErrTimeout: a bounded wait (CTPoll) elapsed before the condition held.
	ErrTimeout = errors.New("portals: timed out")
	// ErrCTFailure: CTWait observed a non-zero failure count before the
	// success threshold was reached.
	ErrCTFailure = errors.New("portals: counting event recorded failures")
)

// DropReason enumerates exactly why an incoming message was discarded.
// §4.8 lists these for put/get and the two reply/ack cases; every discard
// increments the interface drop count tagged with one of these.
type DropReason uint8

const (
	// DropNone is the zero value; never recorded.
	DropNone DropReason = iota
	// DropBadTarget: the target process identified in the request is not
	// a valid process that has initialized the network interface.
	DropBadTarget
	// DropBadPortal: the portal index supplied in the request is not valid.
	DropBadPortal
	// DropBadCookie: the cookie (AC index) is not a valid ACL entry.
	DropBadCookie
	// DropACProcess: the ACL entry does not match the requesting process id.
	DropACProcess
	// DropACPortal: the ACL entry does not match the portal index supplied.
	DropACPortal
	// DropNoMatch: no match entry with an accepting first descriptor
	// matched the request's match bits.
	DropNoMatch
	// DropEQGone: an acknowledgment arrived for an event queue that no
	// longer exists.
	DropEQGone
	// DropMDGone: a reply arrived for a memory descriptor that no longer
	// exists.
	DropMDGone
	// DropEQFull: a reply arrived but the descriptor's event queue has no
	// space (and is not nil).
	DropEQFull
	// DropAborted: a message whose body was being written straight into a
	// memory descriptor never became whole — its sender broke the
	// rendezvous, or an endpoint closed under the transfer. No event was
	// posted and no acknowledgment sent; part of the body may have landed.
	DropAborted
)

var dropReasonNames = [...]string{
	DropNone:      "none",
	DropBadTarget: "bad-target",
	DropBadPortal: "bad-portal-index",
	DropBadCookie: "bad-cookie",
	DropACProcess: "acl-process-mismatch",
	DropACPortal:  "acl-portal-mismatch",
	DropNoMatch:   "no-matching-entry",
	DropEQGone:    "event-queue-gone",
	DropMDGone:    "memory-descriptor-gone",
	DropEQFull:    "event-queue-full",
	DropAborted:   "transfer-aborted",
}

func (r DropReason) String() string {
	if int(r) < len(dropReasonNames) && dropReasonNames[r] != "" {
		return dropReasonNames[r]
	}
	return "drop?"
}

// NumDropReasons is the size of the drop-reason enumeration, for counters.
const NumDropReasons = int(DropAborted) + 1
