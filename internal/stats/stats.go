// Package stats provides the per-interface counters the paper requires
// (§4.8's dropped-message count, split by reason) plus the accounting we
// add to make architectural claims measurable: host interrupts taken and
// bytes moved.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/types"
)

// pad separates counter groups onto distinct cache lines. 64 bytes covers
// x86-64 and most arm64 parts; the point is that two counters bumped by
// different goroutines never share a line.
type pad [64]byte

// Counters aggregates the event counts of one network interface. All
// methods are safe for concurrent use; reads are approximate snapshots.
//
// Layout: fields are grouped by which path bumps them — receive-side
// (delivery lanes) and send-side (application goroutines) — with
// cache-line padding between groups. A delivery lane hammering Recv
// therefore never false-shares with an application goroutine in Send.
// Groups are padded, not individual fields: `sweep swarm` instantiates one
// Counters per endpoint (10⁵ of them), so per-field padding would cost
// ~1.3 KiB × 100k ≈ 130 MB for nothing — counters within one group are
// bumped together by the same goroutine anyway. BenchmarkCountersParallel
// (stats_bench_test.go) measures the delta against the unpadded layout.
type Counters struct {
	// Receive path: bumped by delivery-engine goroutines.
	drops      [types.NumDropReasons]atomic.Int64
	recvMsgs   atomic.Int64
	recvBytes  atomic.Int64
	interrupt  atomic.Int64 // host interrupts taken on the receive path
	acks       atomic.Int64
	replies    atomic.Int64
	matchWalks atomic.Int64 // Figure-4 translations performed
	matchSteps atomic.Int64 // match entries examined across all walks
	// indexHits/indexMisses: walks resolved from a hash bucket vs the
	// wildcard list (or not at all) — docs/PERF.md match-index telemetry.
	indexHits   atomic.Int64
	indexMisses atomic.Int64
	// Counting events / triggered operations (core/ct.go). Increments and
	// fires are bumped by delivery lanes, so they live in this group;
	// trigArmed is application-side but rare (arming is control-path).
	ctIncs      atomic.Int64 // counter increments (success or failure, any source)
	trigArmed   atomic.Int64 // triggered operations armed
	trigFired   atomic.Int64 // triggered operations fired
	trigDropped atomic.Int64 // fires dropped (stale MD/CT at fire time)
	_           pad

	// Send path: bumped by application goroutines in StartPut/StartGet.
	sendMsgs  atomic.Int64
	sendBytes atomic.Int64
	_         pad
}

// Drop records a discarded incoming message (§4.8: "the incoming message is
// discarded and the dropped message count for the interface is incremented").
func (c *Counters) Drop(r types.DropReason) {
	if int(r) < len(c.drops) {
		c.drops[r].Add(1)
	}
}

// Dropped returns the total number of dropped messages across all reasons.
func (c *Counters) Dropped() int64 {
	var n int64
	for i := range c.drops {
		n += c.drops[i].Load()
	}
	return n
}

// DroppedFor returns the drop count for a single reason.
func (c *Counters) DroppedFor(r types.DropReason) int64 {
	if int(r) >= len(c.drops) {
		return 0
	}
	return c.drops[r].Load()
}

// Recv records a message delivered into a memory descriptor.
func (c *Counters) Recv(bytes int) {
	c.recvMsgs.Add(1)
	c.recvBytes.Add(int64(bytes))
}

// Send records a request initiated by this interface.
func (c *Counters) Send(bytes int) {
	c.sendMsgs.Add(1)
	c.sendBytes.Add(int64(bytes))
}

// Interrupt records one host interrupt taken to process an incoming
// message (the cost OS-bypass exists to avoid, §5.1).
func (c *Counters) Interrupt() { c.interrupt.Add(1) }

// Ack and Reply record protocol responses generated by this interface.
func (c *Counters) Ack()   { c.acks.Add(1) }
func (c *Counters) Reply() { c.replies.Add(1) }

// MatchWalk records one Figure-4 translation walk: how many match entries
// were examined, and whether the accepting entry came out of the match
// index's hash buckets (as opposed to the wildcard side list or no match).
func (c *Counters) MatchWalk(steps int, indexHit bool) {
	c.matchWalks.Add(1)
	c.matchSteps.Add(int64(steps))
	if indexHit {
		c.indexHits.Add(1)
	} else {
		c.indexMisses.Add(1)
	}
}

// CTInc records one counting-event advance (core ctInc/CTSet).
func (c *Counters) CTInc() { c.ctIncs.Add(1) }

// TrigArmed, TrigFired, TrigDropped record the triggered-op lifecycle:
// armed on a counter, fired on the delivery path, or dropped at fire time
// because the descriptor or counter had vanished (§4.8 posture: no
// initiator left to surface the error to).
func (c *Counters) TrigArmed() { c.trigArmed.Add(1) }

func (c *Counters) TrigFired() { c.trigFired.Add(1) }

func (c *Counters) TrigDropped() { c.trigDropped.Add(1) }

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Drops      map[types.DropReason]int64
	Dropped    int64
	RecvMsgs   int64
	RecvBytes  int64
	SendMsgs   int64
	SendBytes  int64
	Interrupts int64
	Acks       int64
	Replies    int64

	MatchWalks  int64
	MatchSteps  int64
	IndexHits   int64
	IndexMisses int64

	CTIncs      int64
	TrigArmed   int64
	TrigFired   int64
	TrigDropped int64
}

// Snapshot captures the current counter values.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{Drops: make(map[types.DropReason]int64)}
	for i := range c.drops {
		if v := c.drops[i].Load(); v != 0 {
			s.Drops[types.DropReason(i)] = v
			s.Dropped += v
		}
	}
	s.RecvMsgs = c.recvMsgs.Load()
	s.RecvBytes = c.recvBytes.Load()
	s.SendMsgs = c.sendMsgs.Load()
	s.SendBytes = c.sendBytes.Load()
	s.Interrupts = c.interrupt.Load()
	s.Acks = c.acks.Load()
	s.Replies = c.replies.Load()
	s.MatchWalks = c.matchWalks.Load()
	s.MatchSteps = c.matchSteps.Load()
	s.IndexHits = c.indexHits.Load()
	s.IndexMisses = c.indexMisses.Load()
	s.CTIncs = c.ctIncs.Load()
	s.TrigArmed = c.trigArmed.Load()
	s.TrigFired = c.trigFired.Load()
	s.TrigDropped = c.trigDropped.Load()
	return s
}

// String renders the snapshot compactly for NIStatus-style debugging.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recv=%d/%dB send=%d/%dB intr=%d acks=%d replies=%d dropped=%d",
		s.RecvMsgs, s.RecvBytes, s.SendMsgs, s.SendBytes, s.Interrupts, s.Acks, s.Replies, s.Dropped)
	if s.MatchWalks > 0 {
		fmt.Fprintf(&b, " walk=%d/%d idx=%d/%d", s.MatchSteps, s.MatchWalks, s.IndexHits, s.IndexMisses)
	}
	if s.CTIncs+s.TrigArmed > 0 {
		fmt.Fprintf(&b, " ct=%d trig=%d/%d/%d", s.CTIncs, s.TrigArmed, s.TrigFired, s.TrigDropped)
	}
	if len(s.Drops) > 0 {
		reasons := make([]types.DropReason, 0, len(s.Drops))
		for r := range s.Drops {
			reasons = append(reasons, r)
		}
		sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
		b.WriteString(" [")
		for i, r := range reasons {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%d", r, s.Drops[r])
		}
		b.WriteString("]")
	}
	return b.String()
}
