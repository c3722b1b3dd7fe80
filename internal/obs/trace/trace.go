// Package trace is a per-message flight recorder for the whole message
// path: tx-enqueue → wire-tx → loss/retransmit → lane-dispatch →
// match-start/match-done → deliver → event-post → ack.
//
// Records land in one power-of-two ring under one mutex: Record reads the
// clock, then stores the record and bumps the cursor under the lock, 0
// allocs/op; a disabled tracer costs one atomic load and a predicted
// branch. Spans are keyed by (initiator NID/PID, seq): message-level stages
// use the wire header's Seq assigned at StartPut / StartGet, packet-level
// stages (wire-tx, loss, retransmit) use transport sequence counters under
// PID 0. See docs/OBSERVABILITY.md.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Stage identifies one step of the message path.
type Stage uint8

const (
	// StageTxEnqueue marks StartPut/StartGet handing a message to the
	// transport; Arg is the payload length.
	StageTxEnqueue Stage = 1 + iota
	// StageWireTx marks a transport putting bytes on the wire; Arg is the
	// frame length. Keyed (src NID, 0, packet seq).
	StageWireTx
	// StageLoss marks a simnet fault dropping a frame; Arg is the frame
	// length. Keyed (src NID, 0, drop count).
	StageLoss
	// StageRetransmit marks an rtscts retransmission attempt; Arg is the
	// backoff delay in nanoseconds that preceded it.
	StageRetransmit
	// StageLaneDispatch marks the nicsim dispatcher handing a message to a
	// delivery lane; Arg is the lane index.
	StageLaneDispatch
	// StageMatchStart marks entry into the Figure-4 match walk.
	StageMatchStart
	// StageMatchDone marks the walk's end; Arg is the walk length in steps.
	StageMatchDone
	// StageDeliver marks payload bytes landing in user memory; Arg is the
	// byte count.
	StageDeliver
	// StageEventPost marks an event landing in an event queue; Arg is the
	// event kind.
	StageEventPost
	// StageAck marks the initiator consuming an ack/reply; Arg is the
	// mlength. Keyed by the original initiator and wire seq.
	StageAck
	// StageAppBurnStart / StageAppBurnEnd bracket the bypass experiment's
	// compute burn (Figure 6); keyed (NID, PID, iteration).
	StageAppBurnStart
	StageAppBurnEnd
	// StageTrigFire marks a triggered operation firing on the delivery path
	// (core/ct.go fireOp); keyed (NID, PID, threshold), Arg is the op kind
	// (1 put, 2 get, 3 ct-inc). Landing inside a burn span is the
	// offloaded-collective evidence cmd/tracecheck -require-offload checks.
	StageTrigFire
)

var stageNames = [...]string{
	StageTxEnqueue:    "tx-enqueue",
	StageWireTx:       "wire-tx",
	StageLoss:         "loss",
	StageRetransmit:   "retransmit",
	StageLaneDispatch: "lane-dispatch",
	StageMatchStart:   "match-start",
	StageMatchDone:    "match-done",
	StageDeliver:      "deliver",
	StageEventPost:    "event-post",
	StageAck:          "ack",
	StageAppBurnStart: "burn-start",
	StageAppBurnEnd:   "burn-end",
	StageTrigFire:     "trig-fire",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return "unknown"
}

// Entry is one flight-recorder record. TS is nanoseconds since the
// recorder's epoch (monotonic).
type Entry struct {
	TS    int64
	Seq   uint64
	Arg   uint64
	NID   uint32
	PID   uint32
	Stage Stage
}

// ringSize is the ring's slot count, a power of two (2.5 MiB of Entry).
// Old records are overwritten once the ring wraps.
const ringSize = 1 << 16

// Recorder is one flight-recorder ring under one mutex.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	//lint:guardedby mu
	pos uint64 // records written so far; the next lands at pos%ringSize
	//lint:guardedby mu
	ring [ringSize]Entry
}

// New builds an empty Recorder.
func New() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Record appends one entry, 0 allocs. The clock is read before the lock,
// so the critical section is the slot store and the cursor bump.
//
// The flight recorder rides the message path (TestRecordAllocs).
func (r *Recorder) Record(stage Stage, nid, pid uint32, seq, arg uint64) {
	ts := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.ring[r.pos%ringSize] = Entry{TS: ts, Seq: seq, Arg: arg, NID: nid, PID: pid, Stage: stage}
	r.pos++
	r.mu.Unlock()
}

// Snapshot copies out every record the ring holds, ordered by timestamp.
// It holds the lock for one copy of at most the ring; Snapshot is an
// exporter-side call, not a hot-path one.
func (r *Recorder) Snapshot() []Entry {
	r.mu.Lock()
	out := make([]Entry, min(r.pos, ringSize))
	copy(out, r.ring[:])
	r.mu.Unlock()
	sortRecords(out)
	return out
}

// sortRecords orders by TS, breaking ties by (NID, PID, Seq, Stage) so
// exports are deterministic. Only Snapshot sorts — never the hot path.
func sortRecords(recs []Entry) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.NID != b.NID {
			return a.NID < b.NID
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Stage < b.Stage
	})
}
