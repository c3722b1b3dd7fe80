package portals

import (
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/stats"
	"repro/internal/types"
)

// Identifier and option types, re-exported so users of this package never
// import internal paths. See the originals for full documentation.
type (
	// NID names a node; PID a process within a node.
	NID = types.NID
	PID = types.PID
	// ProcessID is the (NID, PID) pair addressing a process.
	ProcessID = types.ProcessID
	// MatchBits is the 64-bit matching tag of every put/get.
	MatchBits = types.MatchBits
	// PtlIndex indexes the portal table; ACIndex the access-control list.
	PtlIndex = types.PtlIndex
	ACIndex  = types.ACIndex
	// Handle opaquely names an ME, MD, or EQ.
	Handle = types.Handle
	// MD describes a memory region, options, threshold, and event queue.
	MD = core.MD
	// MDOptions is the option bitmask of a memory descriptor.
	MDOptions = types.MDOptions
	// Event records one completed operation.
	Event = eventq.Event
	// EventType discriminates events (EventPut, EventAck, ...).
	EventType = types.EventType
	// Limits bounds per-interface resources.
	Limits = types.Limits
	// UnlinkOption selects automatic unlinking (Unlink) or not (Retain).
	UnlinkOption = types.UnlinkOption
	// InsertPosition places match entries (Before/After).
	InsertPosition = types.InsertPosition
	// AckRequest asks for (AckReq) or declines (NoAckReq) a put ack.
	AckRequest = types.AckRequest
	// DropReason labels why an incoming message was discarded (§4.8).
	DropReason = types.DropReason
	// Stats is a snapshot of interface counters (NIStatus).
	Stats = stats.Snapshot
	// CTValue is a counting event's (success, failure) pair.
	CTValue = types.CTValue
)

// Re-exported constants; see internal/types for semantics.
const (
	NIDAny      = types.NIDAny
	PIDAny      = types.PIDAny
	PtlIndexAny = types.PtlIndexAny

	MDOpPut             = types.MDOpPut
	MDOpGet             = types.MDOpGet
	MDTruncate          = types.MDTruncate
	MDManageRemote      = types.MDManageRemote
	MDAckDisable        = types.MDAckDisable
	MDEventStartDisable = types.MDEventStartDisable

	// Counting-event routing: which completions increment the MD's CT.
	MDCTPut      = types.MDCTPut
	MDCTGet      = types.MDCTGet
	MDCTAck      = types.MDCTAck
	MDCTReply    = types.MDCTReply
	MDCTSend     = types.MDCTSend
	MDCTBytes    = types.MDCTBytes
	MDAccumulate = types.MDAccumulate

	ThresholdInfinite = types.ThresholdInfinite

	Retain = types.Retain
	Unlink = types.Unlink
	Before = types.Before
	After  = types.After

	AckReq   = types.AckReq
	NoAckReq = types.NoAckReq

	EventPut    = types.EventPut
	EventGet    = types.EventGet
	EventReply  = types.EventReply
	EventAck    = types.EventAck
	EventSend   = types.EventSend
	EventUnlink = types.EventUnlink

	DropBadTarget = types.DropBadTarget
	DropBadPortal = types.DropBadPortal
	DropBadCookie = types.DropBadCookie
	DropACProcess = types.DropACProcess
	DropACPortal  = types.DropACPortal
	DropNoMatch   = types.DropNoMatch
	DropEQGone    = types.DropEQGone
	DropMDGone    = types.DropMDGone
	DropEQFull    = types.DropEQFull
	DropAborted   = types.DropAborted
)

// Re-exported error values, usable with errors.Is.
var (
	ErrNotInitialized  = types.ErrNotInitialized
	ErrInvalidHandle   = types.ErrInvalidHandle
	ErrInvalidArgument = types.ErrInvalidArgument
	ErrNoSpace         = types.ErrNoSpace
	ErrEQEmpty         = types.ErrEQEmpty
	ErrEQDropped       = types.ErrEQDropped
	ErrMDInUse         = types.ErrMDInUse
	ErrProcessNotFound = types.ErrProcessNotFound
	ErrClosed          = types.ErrClosed
	ErrTimeout         = types.ErrTimeout
	ErrCTFailure       = types.ErrCTFailure
)

// InvalidHandle is the "no object" handle (no event queue, no ack MD).
var InvalidHandle = types.InvalidHandle

// AnyProcess matches every initiator; the usual match-entry restriction.
var AnyProcess = ProcessID{NID: NIDAny, PID: PIDAny}
