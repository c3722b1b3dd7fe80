// Package trace is a per-message flight recorder for the whole message
// path: tx-enqueue → wire-tx → loss/retransmit → lane-dispatch →
// match-start/match-done → deliver → event-post → ack.
//
// Records land in sharded power-of-two ring buffers written with a single
// atomic reservation plus a per-slot seqlock stamp, so Record on a delivery
// path is lock-free and 0 allocs/op, and a disabled tracer costs one atomic load
// and a predicted branch. Spans are keyed by (initiator NID/PID, seq):
// message-level stages use the wire header's Seq assigned at StartPut /
// StartGet, packet-level stages (wire-tx, loss, retransmit) use transport
// sequence counters under PID 0.
//
// Stamp protocol (race-detector-clean): for reservation p with ring size N,
//
//	writeStamp(p) = 2p+1   (odd: slot claimed, record in flight)
//	doneStamp(p)  = 2p+2   (even: record at lap p/N is readable)
//
// A writer claims its slot with a single compare-and-swap from the previous
// lap's doneStamp to writeStamp(p); if the CAS fails — a reader holds the
// slot, or the previous lap's writer has not finished — the record is
// dropped and a conflict counter bumped, rather than spinning (a delivery
// path must never wait) or racing (the plain Record field is only touched
// by whoever owns the stamp). Readers likewise CAS a done stamp to the odd
// stamp+1 to lock the slot, copy, and restore. See docs/OBSERVABILITY.md.
package trace

import (
	"sort"
	"sync/atomic"
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

// slot pairs a record with its seqlock stamp (see the package comment for
// the protocol).
type slot struct {
	stamp atomic.Uint64
	rec   Entry
}

type shard struct {
	pos atomic.Uint64
	// pad keeps each shard's reservation counter on its own cache line so
	// concurrent writers on different shards do not false-share.
	_     [56]byte
	slots []slot
	mask  uint64
}

func writeStamp(p uint64) uint64 { return 2*p + 1 }
func doneStamp(p uint64) uint64  { return 2*p + 2 }

// Config sizes a Recorder. Both values are rounded up to powers of two.
type Config struct {
	// Shards is the number of independent rings (default 4). A message's
	// records all land in the shard chosen by its key hash, so one
	// message's records stay ordered by reservation within a shard.
	Shards int
	// ShardSize is the number of slots per ring (default 16384). Old
	// records are overwritten once a ring wraps.
	ShardSize int
}

const (
	defaultShards    = 4
	defaultShardSize = 16384
)

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Recorder is a set of sharded flight-recorder rings.
type Recorder struct {
	epoch     time.Time
	shards    []shard
	shardMask uint64
	conflicts atomic.Uint64
}

// New builds a Recorder. The zero Config gives 4 shards × 16384 slots
// (~2.6 MiB).
func New(cfg Config) *Recorder {
	ns := cfg.Shards
	if ns <= 0 {
		ns = defaultShards
	}
	ns = ceilPow2(ns)
	sz := cfg.ShardSize
	if sz <= 0 {
		sz = defaultShardSize
	}
	sz = ceilPow2(sz)
	r := &Recorder{
		epoch:     time.Now(),
		shards:    make([]shard, ns),
		shardMask: uint64(ns - 1),
	}
	for i := range r.shards {
		r.shards[i].slots = make([]slot, sz)
		r.shards[i].mask = uint64(sz - 1)
	}
	return r
}

// shardHash spreads a span key across shards with one multiply and a
// high-bits fold (Fibonacci hashing) — cheaper than a full splitmix64
// finalizer, and shard choice only needs dispersion, not avalanche.
func shardHash(nid, pid uint32, seq uint64) uint64 {
	x := (uint64(nid)<<32 | uint64(pid)) ^ seq
	return (x * 0x9e3779b97f4a7c15) >> 32
}

// Record appends one entry. Lock-free, 0 allocs; drops (and counts) the
// record instead of waiting if the slot is contended.
//
// The flight recorder rides the message path (TestRecordAllocs).
func (r *Recorder) Record(stage Stage, nid, pid uint32, seq, arg uint64) {
	ts := int64(time.Since(r.epoch))
	sh := &r.shards[shardHash(nid, pid, seq)&r.shardMask]
	p := sh.pos.Add(1) - 1
	s := &sh.slots[p&sh.mask]
	var prev uint64
	if n := uint64(len(sh.slots)); p >= n {
		prev = doneStamp(p - n)
	}
	if !s.stamp.CompareAndSwap(prev, writeStamp(p)) {
		r.conflicts.Add(1)
		return
	}
	s.rec = Entry{TS: ts, Seq: seq, Arg: arg, NID: nid, PID: pid, Stage: stage}
	s.stamp.Store(doneStamp(p))
}

// Conflicts reports how many records were dropped on slot contention.
func (r *Recorder) Conflicts() uint64 { return r.conflicts.Load() }

// Snapshot copies out every readable record, ordered by timestamp. Slots
// mid-write are skipped. Snapshot locks each slot briefly via the stamp, so
// concurrent Records against a snapshotted slot may be dropped (counted as
// conflicts) — Snapshot is an exporter-side call, not a hot-path one.
func (r *Recorder) Snapshot() []Entry {
	var out []Entry
	for si := range r.shards {
		sh := &r.shards[si]
		for i := range sh.slots {
			s := &sh.slots[i]
			st := s.stamp.Load()
			if st == 0 || st%2 == 1 {
				continue // never written, or write/read in flight
			}
			if !s.stamp.CompareAndSwap(st, st+1) {
				continue
			}
			rec := s.rec
			s.stamp.Store(st)
			out = append(out, rec)
		}
	}
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
