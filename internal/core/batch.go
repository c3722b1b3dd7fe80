package core

import "repro/internal/wire"

// Incoming is one decoded message of a delivery batch: the header plus a
// payload view into the carrier buffer. Like HandleIncoming's arguments,
// both are only read during the call that consumes them.
type Incoming struct {
	H       wire.Header
	Payload []byte
}

// HandleIncomingBatch processes a batch of incoming messages in order,
// appending any protocol responses (acks, replies) to out and returning
// it. Batching lets a delivery lane that dequeued a burst of messages run
// the §4.8 receive rules over all of them with ONE outbound scratch slice
// — the per-message scratch round-trip through the pool is the dominant
// fixed cost once translation is O(1) (docs/PERF.md).
//
// Semantics are identical to calling HandleIncomingInto per message:
// responses appear in message order, so per-(initiator, target) ordering
// (§4.1) is preserved for the returned traffic too.
func (s *State) HandleIncomingBatch(batch []Incoming, out []Outbound) []Outbound {
	for i := range batch {
		out = s.HandleIncomingInto(&batch[i].H, batch[i].Payload, out)
	}
	return out
}
