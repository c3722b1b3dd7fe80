// Package core implements the Portals address-translation and delivery
// engine — the data structures of Figure 3 (portal table → match lists →
// memory descriptors → event queues) and the algorithm of Figure 4 —
// together with the initiator-side operation machinery and the receive
// rules of §4.8.
//
// A State is the per-process, per-interface Portals state. It is
// deliberately transport-free: incoming wire messages are handed to
// HandleIncoming, which returns any protocol responses (acks, replies) for
// the caller to transmit. The network interface layer (internal/nicsim)
// owns the delivery-engine goroutine that calls into this package; that
// goroutine is the analogue of the Myrinet control program, and its
// independence from application goroutines is what realizes application
// bypass (§5.1).
//
// Locking (docs/PERF.md has the full story): delivery contends per portal
// index, not globally. Each portal carries its own mutex; free-floating
// (MDBind) descriptors share bindMu. Handle resolution is lock-free: the
// tables are rcu.Tables, so readers resolve ME/MD/EQ handles with atomic
// loads and generation checks, while writers serialize under resMu (which
// also guards the closed flag) and publish each change atomically. Code
// that resolves a handle and then needs the entry's mutable state brackets
// the gap with a pins read-side window and re-checks unlinked under the
// entry's owner lock — the bridge protocol of docs/PERF.md §7.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acl"
	"repro/internal/arena"
	"repro/internal/eventq"
	"repro/internal/rcu"
	"repro/internal/stats"
	"repro/internal/types"
)

// The delivery engine's lock hierarchy (docs/PERF.md §2, §7),
// machine-checked by portalsvet's lockorder check: every lock-acquisition
// edge in the module must follow a declared path, and no path may hold two
// locks of the same class (in particular, never two portal locks).
// memDesc.owner aliases either a portal's mu or bindMu, so it sits at the
// same level. The rcu table writer lock (Table.wmu) and the arena lock
// (Arena.mu) are leaves below everything: they serialize one slot or
// free-list update and call nothing. So is a Parker's lock (Parker.mu):
// event posts and counter increments wake waiters under delivery locks.
// The flight recorder's lock (Recorder.mu) is the bottom of the hierarchy:
// delivery paths record under their locks, and Record calls nothing.
//
//lint:lockrank portal.mu < State.resMu
//lint:lockrank State.bindMu < State.resMu
//lint:lockrank memDesc.owner < State.resMu
//lint:lockrank portal.mu < Queue.mu
//lint:lockrank memDesc.owner < Queue.mu
//lint:lockrank State.resMu < Queue.mu
//lint:lockrank portal.mu < List.mu
//lint:lockrank State.resMu < Table.wmu
//lint:lockrank portal.mu < Table.wmu
//lint:lockrank State.bindMu < Table.wmu
//lint:lockrank memDesc.owner < Table.wmu
//lint:lockrank portal.mu < Arena.mu
//lint:lockrank State.bindMu < Arena.mu
//lint:lockrank memDesc.owner < Arena.mu
//lint:lockrank State.resMu < Arena.mu
//lint:lockrank portal.mu < Parker.mu
//lint:lockrank memDesc.owner < Parker.mu
//lint:lockrank portal.mu < Recorder.mu
//lint:lockrank memDesc.owner < Recorder.mu

// State holds everything Figure 3 depicts for one process: the portal
// table, match entries, memory descriptors, event queues, and the ACL,
// plus the interface counters.
type State struct {
	self   types.ProcessID
	limits types.Limits

	// table is the portal table: index → match list + match index. The
	// portals are stored inline — one allocation for the whole table, and
	// stable addresses for the per-portal locks.
	table []portal

	// bindMu is the owner lock for free-floating (MDBind) descriptors —
	// the initiator-side analogue of a portal's delivery lock.
	bindMu sync.Mutex

	// resMu serializes resource-table writers (alloc/release) against each
	// other and against Close. Readers never take it: lookups go through
	// the rcu tables below. Lock order: portal.mu / bindMu before resMu.
	resMu sync.Mutex
	mes   slotTable[matchEntry]
	mds   slotTable[memDesc]
	eqs   slotTable[eventq.Queue]
	cts   slotTable[ctr]

	// trigPending is the Treiber stack of counters whose success count
	// crossed an armed threshold since the last FireTriggered drain
	// (ct.go). Delivery lanes drain it at the tail of HandleIncomingInto;
	// application-side counter advances drain it through the portals layer.
	trigPending atomic.Pointer[ctr]

	// lent counts put bodies out on loan to a fabric (LendPut) and not yet
	// returned.
	lent atomic.Int64

	// closed flips once, under resMu; hot paths read it with one atomic
	// load (no lock).
	closed atomic.Bool

	// pins delimits handle-resolution bridge windows (lookup → owner lock
	// → unlinked re-check); the arenas reuse a released entry only at a
	// moment with no window open (docs/PERF.md §7). Every put opens one,
	// so its counters sit on a cache line of their own, apart from
	// trigPending and closed, which the lanes read per message.
	pins rcu.Guards

	// meArena/mdArena back the match-entry and descriptor records: a few
	// chunked slabs instead of one GC-tracked heap object per entry, which
	// is what keeps 10⁶ match entries from dominating GC scan time.
	meArena arena.Arena[matchEntry]
	mdArena arena.Arena[memDesc]

	acl      *acl.List
	counters *stats.Counters

	// sendSeq numbers outgoing puts/gets (wire.Header.Seq); acks and
	// replies echo it, so (self, seq) identifies one message's full round
	// trip in the internal/obs/trace flight recorder.
	sendSeq atomic.Uint64
}

// nextSeq returns the next wire sequence number for an outgoing operation.
func (s *State) nextSeq() uint32 { return uint32(s.sendSeq.Add(1)) }

// NewState builds the Portals state for one process. The ACL comes
// pre-initialized by the runtime (entries 0 and 1, §4.5); counters may be
// shared with the interface that owns this state.
func NewState(self types.ProcessID, limits types.Limits, list *acl.List, counters *stats.Counters) *State {
	limits = limits.Clamp()
	if counters == nil {
		counters = &stats.Counters{}
	}
	if list == nil {
		list = acl.New(limits.MaxACEntries,
			types.ProcessID{NID: types.NIDAny, PID: types.PIDAny},
			types.ProcessID{NID: types.NIDAny, PID: 0})
	}
	s := &State{
		self:     self,
		limits:   limits,
		table:    make([]portal, limits.MaxPtlIndex+1),
		acl:      list,
		counters: counters,
	}
	s.mes.init(types.KindME, limits.MaxMEs)
	s.mds.init(types.KindMD, limits.MaxMDs)
	s.eqs.init(types.KindEQ, limits.MaxEQs)
	s.cts.init(types.KindCT, limits.MaxCTs)
	s.meArena.SetGate(&s.pins)
	s.mdArena.SetGate(&s.pins)
	return s
}

// Self returns the process identifier this state belongs to.
func (s *State) Self() types.ProcessID { return s.self }

// Limits returns the granted resource limits.
func (s *State) Limits() types.Limits { return s.limits }

// Counters exposes the interface counters (NIStatus).
func (s *State) Counters() *stats.Counters { return s.counters }

// ACL exposes the access-control list for PtlACEntry.
func (s *State) ACL() *acl.List { return s.acl }

// Close tears down the state: all event queues are closed so waiters wake,
// and every subsequent operation fails with ErrClosed. resMu serializes
// the flag flip against in-flight allocs, so no queue can be created after
// the teardown snapshot.
func (s *State) Close() {
	s.resMu.Lock()
	if s.closed.Load() {
		s.resMu.Unlock()
		return
	}
	s.closed.Store(true)
	var queues []*eventq.Queue
	s.eqs.each(func(q *eventq.Queue) { queues = append(queues, q) })
	var counters []*ctr
	s.cts.each(func(c *ctr) { counters = append(counters, c) })
	s.resMu.Unlock()
	for _, q := range queues {
		q.Close()
	}
	// Counters close after the flag flip: CTWait waiters wake with
	// ErrClosed, and armed triggered operations are discarded, never fired
	// (the same unlink-while-armed rule CTFree follows).
	for _, c := range counters {
		for n := c.close(); n > 0; n-- {
			s.counters.TrigDropped()
		}
	}
}

// lentGrace is how long CheckTeardown waits for lent bodies to come back: a
// fabric's link may give one back just after its Close, as it does a pooled
// buffer, and the wait is the buffer ledger's (pooltest).
var lentGrace = 10 * time.Second

// CheckTeardown closes s and reports what its teardown left behind: an RCU
// pin still open, a put body still lent to a fabric, or a match entry or
// descriptor alive in its arena that the State's tables no longer reach. Tests call it once whatever used the State
// has stopped; a nil result means the State gave back everything it took.
func (s *State) CheckTeardown() error {
	s.Close()
	var errs []error
	if !s.pins.Quiescent() {
		errs = append(errs, errors.New("an RCU pin is still open at teardown"))
	}
	for deadline := time.Now().Add(lentGrace); s.lent.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := s.lent.Load(); n != 0 {
		errs = append(errs, fmt.Errorf("%d put bodies still lent at teardown", n))
	}
	if live, n := s.meArena.Live(), s.mes.tab.Count(); live != n {
		errs = append(errs, fmt.Errorf("%d match entries live in the arena, %d in the table", live, n))
	}
	if live, n := s.mdArena.Live(), s.mds.tab.Count(); live != n {
		errs = append(errs, fmt.Errorf("%d descriptors live in the arena, %d in the table", live, n))
	}
	return errors.Join(errs...)
}

// slotTable adapts one rcu.Table to Portals handles for one object kind:
// generation counters in the handle word preserve stale-handle detection
// (§4.8 depends on detecting vanished MDs/EQs) while lookups run
// lock-free. Writers are additionally serialized under State.resMu so
// alloc/release compose atomically with the closed flag and with each
// other across the three tables.
type slotTable[T any] struct {
	kind types.HandleKind
	tab  rcu.Table[T]
}

func (t *slotTable[T]) init(kind types.HandleKind, max int) {
	t.kind = kind
	t.tab.Init(max)
}

// alloc reserves a slot for v. v must be fully constructed: publication
// makes it visible to lock-free readers immediately. Fields written after
// alloc may only be touched under the entry's owner lock.
//
//lint:requires State.resMu
func (t *slotTable[T]) alloc(v *T) (types.Handle, error) {
	idx, gen, ok := t.tab.Alloc(v)
	if !ok {
		return types.InvalidHandle, fmt.Errorf("%w: %s table full (%d)", types.ErrNoSpace, t.kind, t.tab.Count())
	}
	return types.Handle{Kind: t.kind, Index: idx, Gen: gen}, nil
}

// lookup resolves a handle, verifying its generation — atomic loads only,
// no locks (the read side of the §7 scheme).
//
// Handle resolution runs per message on the delivery path.
func (t *slotTable[T]) lookup(h types.Handle) (*T, bool) {
	if h.Kind != t.kind {
		return nil, false
	}
	return t.tab.Lookup(h.Index, h.Gen)
}

// release frees a slot and bumps its generation, so every stale handle
// misses from this point on. Entry memory must not be reused while a pin
// opened before the release is still open: the arenas reuse it only at a
// moment with no pin open.
//
//lint:requires State.resMu
func (t *slotTable[T]) release(h types.Handle) bool {
	if h.Kind != t.kind {
		return false
	}
	_, ok := t.tab.Release(h.Index, h.Gen)
	return ok
}

// each visits every live entry (control plane: teardown, experiments).
//
//lint:requires State.resMu
func (t *slotTable[T]) each(f func(*T)) {
	t.tab.Each(f)
}
