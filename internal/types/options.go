package types

// MDOptions is the option bitmask of a memory descriptor (§4.4, §4.8).
type MDOptions uint32

const (
	// MDOpPut enables the descriptor for incoming put operations. A
	// descriptor with this bit clear rejects puts (§4.8: "the memory
	// descriptor has not been enabled for the incoming operation").
	MDOpPut MDOptions = 1 << iota
	// MDOpGet enables the descriptor for incoming get operations.
	MDOpGet
	// MDTruncate allows an incoming request longer than the remaining
	// space to be accepted and truncated. Without it such requests are
	// rejected (§4.8).
	MDTruncate
	// MDManageRemote makes the descriptor honour the offset carried in the
	// incoming request. Without it the descriptor manages the offset
	// locally (each accepted operation appends after the previous one),
	// which is what MPI-style unexpected-message buffers use.
	MDManageRemote
	// MDAckDisable suppresses acknowledgment generation for puts into this
	// descriptor even when the initiator asked for one.
	MDAckDisable
	// MDEventStartDisable suppresses start events (we log only completion
	// events by default; kept for spec parity).
	MDEventStartDisable

	// Counting-event routing (the Portals 4 counting-event model grafted
	// onto this 3.0 engine; docs/PROTOCOL.md "Counting events"). Each bit
	// routes one completion class on this descriptor into the counter named
	// by MD.CT. Success increments can arm triggered operations; see
	// internal/core/ct.go.

	// MDCTPut counts incoming puts delivered into this descriptor (target
	// side; fires alongside EventPut).
	MDCTPut
	// MDCTGet counts incoming gets served from this descriptor (target
	// side; fires alongside EventGet).
	MDCTGet
	// MDCTAck counts put acknowledgments arriving for this descriptor
	// (initiator side; fires alongside EventAck). Unlike the event-queue
	// path, a counting ack is processed even when the descriptor has no
	// event queue.
	MDCTAck
	// MDCTReply counts get replies landing in this descriptor (initiator
	// side; fires alongside EventReply). A reply dropped because the event
	// queue is full increments the counter's FAILURE count instead.
	MDCTReply
	// MDCTSend counts local send completion of outgoing puts from this
	// descriptor: the network has read the payload for the last time,
	// retransmissions included (fires alongside EventSend).
	MDCTSend
	// MDCTBytes switches the counter's unit from operations to manipulated
	// bytes (PTL_MD_EVENT_CT_BYTES): each counted completion adds mlength
	// instead of 1.
	MDCTBytes
	// MDAccumulate makes incoming put payloads COMBINE into the region
	// (elementwise float64 sum over the overlapped range) instead of
	// overwriting it — the NIC-side reduction primitive triggered
	// collectives build allreduce from. Requires a contiguous (non-Segments)
	// region; payloads are treated as little-endian float64s and a trailing
	// partial element is ignored.
	MDAccumulate
)

// ThresholdInfinite marks a memory descriptor that is never consumed by
// operations (ptl_md_t.threshold = PTL_MD_THRESH_INF).
const ThresholdInfinite = int32(-1)

// Unlink behaviour for MDAttach, and for match entries.
type UnlinkOption uint8

const (
	// Retain keeps the object linked when its threshold is exhausted or
	// its MD list empties.
	Retain UnlinkOption = iota
	// Unlink removes the object automatically (Figure 4's unlink flags).
	Unlink
)

// InsertPosition selects where MEInsert places a new match entry relative
// to an existing one.
type InsertPosition uint8

const (
	Before InsertPosition = iota
	After
)

// AckRequest controls acknowledgment generation for a put (Table 1: "a
// process can also signify that no acknowledgment is requested by using a
// special flag").
type AckRequest uint8

const (
	AckReq AckRequest = iota
	NoAckReq
)

// EventType identifies what an event records (§4.8).
type EventType uint8

const (
	// EventPut records completion of an incoming put at the target.
	EventPut EventType = iota + 1
	// EventGet records completion of an incoming get at the target (data
	// was read out of the descriptor and a reply was generated).
	EventGet
	// EventReply records arrival of reply data at the initiator of a get.
	EventReply
	// EventAck records arrival of a put acknowledgment at the initiator.
	EventAck
	// EventSend records local completion of an outgoing put request: the
	// network read the payload out of the descriptor for the last time,
	// so its buffer may be reused; until then the descriptor is in use.
	EventSend
	// EventUnlink records automatic unlinking of a memory descriptor.
	EventUnlink
)

func (t EventType) String() string {
	switch t {
	case EventPut:
		return "PUT"
	case EventGet:
		return "GET"
	case EventReply:
		return "REPLY"
	case EventAck:
		return "ACK"
	case EventSend:
		return "SEND"
	case EventUnlink:
		return "UNLINK"
	default:
		return "EVENT?"
	}
}

// NIStatusRegister selects a counter readable through NIStatus (§4.8 keeps
// a dropped-message count per interface; we expose the full reason split
// through internal/stats and the sum here).
type NIStatusRegister uint8

const (
	// SRDropCount is the number of messages the interface discarded, for
	// any of the reasons enumerated in §4.8.
	SRDropCount NIStatusRegister = iota
	// SRRecvCount is the number of messages delivered into descriptors.
	SRRecvCount
	// SRSendCount is the number of requests this interface initiated.
	SRSendCount
)
