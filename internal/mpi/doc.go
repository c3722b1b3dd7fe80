// Package mpi implements an MPI point-to-point and collective subset on
// Portals, following the protocol of the Cplant MPICH port the paper
// describes (§5.2–5.3).
//
// The defining property is that the MPI progress rule is satisfied by the
// Portals delivery engine, not by the library: a pre-posted receive is a
// match entry + memory descriptor, so an incoming message lands directly
// in the user buffer while the application computes. MPI_Wait merely
// harvests events. This is what makes the MPICH/Portals curve of Figure 6
// fall with the work interval.
//
// # Protocol
//
// Every message is a Portals put to the MPI portal index, with the
// envelope packed into the 64-bit match bits:
//
//	bit  63     long-protocol flag
//	bits 48..62 context id (communicator)
//	bits 32..47 source rank
//	bits  0..31 tag
//
// Eager messages (≤ EagerLimit) carry their data in the put. If a posted
// receive matches, the data is delivered into the user buffer with no
// library involvement; otherwise it lands in an overflow (unexpected)
// buffer and is copied out when a matching receive is posted — the copy
// every MPI pays for unexpected eager messages.
//
// Long messages also put their full data (so a pre-posted receive still
// gets direct, fully-overlapped delivery — application bypass is not lost
// for large transfers), but additionally bind the data for remote get on
// a read portal. The target's overflow entry for long messages truncates
// to zero bytes, recording only the envelope; when the receive is finally
// posted, the library fetches the data with a Portals get straight into
// the user buffer. The sender learns which path happened from the
// manipulated length in the put acknowledgment (full = consumed
// directly; otherwise the reply to the receiver's get completes the
// send) — the §4.7 manipulated-length mechanism doing real work.
//
// Receive-order correctness: Irecv first arms the match entry, then
// drains the event queue. Any message that arrived before arming has its
// event ordered before any event of the new entry, so the drain sees it
// first and, when it matches, atomically disarms the entry (unlink) and
// takes the earlier message — restoring MPI's arrival-order matching
// without a lock shared with the delivery engine. A message that raced
// into an entry the library was disarming is requeued when its event
// drains, in its arrival place, and a receive being armed takes it the
// same way.
//
// # Threading
//
// A Comm supports MPI_THREAD_SINGLE semantics: one goroutine per rank.
// Different ranks (different Comm values) are fully concurrent.
package mpi
