package mpi

import "repro/portals"

// Portal table indexes used by the MPI protocol.
const (
	// ptlMPI receives all message puts (eager data and long-protocol).
	ptlMPI portals.PtlIndex = 1
	// ptlRead serves long-protocol gets: senders bind message data here.
	ptlRead portals.PtlIndex = 2
	// PtlFree is the lowest index a program built on a Comm may claim for
	// itself: above ptlMPI, ptlRead and ptlWin (win.go), and above what the
	// module's other libraries claim (shmem 3, coll 4 and 5).
	PtlFree portals.PtlIndex = 8
)

// Wildcards for Irecv.
const (
	// AnySource matches messages from every rank (MPI_ANY_SOURCE).
	AnySource = -1
	// AnyTag matches every tag (MPI_ANY_TAG).
	AnyTag = -1
)

// Match-bits layout (see package comment).
const (
	longBit  portals.MatchBits = 1 << 63
	ctxShift                   = 48
	srcShift                   = 32
	ctxMask  portals.MatchBits = 0x7FFF << ctxShift
	srcMask  portals.MatchBits = 0xFFFF << srcShift
	tagMask  portals.MatchBits = 0xFFFFFFFF
)

// encBits packs an envelope.
func encBits(long bool, ctx uint16, src int, tag int) portals.MatchBits {
	b := portals.MatchBits(ctx&0x7FFF)<<ctxShift |
		portals.MatchBits(uint16(src))<<srcShift |
		portals.MatchBits(uint32(tag))
	if long {
		b |= longBit
	}
	return b
}

// decBits unpacks an envelope.
func decBits(b portals.MatchBits) (long bool, ctx uint16, src int, tag int) {
	return b&longBit != 0,
		uint16(b >> ctxShift & 0x7FFF),
		int(uint16(b >> srcShift)),
		int(uint32(b & tagMask))
}

// recvBits returns the match/ignore pair for posting a receive: the long
// flag is always ignored (both protocols must match), and wildcard source
// or tag widen the ignore mask.
func recvBits(ctx uint16, src, tag int) (bits, ignore portals.MatchBits) {
	ignore = longBit
	s, tg := src, tag
	if src == AnySource {
		ignore |= srcMask
		s = 0
	}
	if tag == AnyTag {
		ignore |= tagMask
		tg = 0
	}
	return encBits(false, ctx, s, tg), ignore
}

// readBits identifies the k-th long message from src in ctx on the read
// portal. Both sides compute it independently: the sender counts its long
// sends per destination, the receiver counts long arrivals per source —
// the counts agree because Portals delivery is ordered per process pair.
func readBits(ctx uint16, src int, k uint32) portals.MatchBits {
	return encBits(true, ctx, src, int(k))
}
