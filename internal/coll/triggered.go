// Triggered collectives: the same operations as coll.Group, rebuilt as
// pre-armed triggered-operation chains (ct.go) so they progress entirely
// on the delivery lanes — the Portals-4 §3.15 offload model. The host's
// role per collective shrinks to: arm this generation's triggered ops,
// contribute its own arrival, and (eventually) wait on a counter. Between
// those two points every hop of the tree — child arrivals, NIC-side
// accumulation, the root's turnaround, the down-wave fan-out — executes
// inside HandleIncomingInto on whichever lane crossed the threshold, with
// zero host wakeups. That gap is what experiment E15 measures: a collective
// that completes *under* a compute burn instead of after it.
//
// Topology is a binary tree over ranks (parent (r-1)/2, children 2r+1 and
// 2r+2), fixed at group creation; TBcast is therefore rooted at rank 0.
// All counters are MONOTONE — generation g's thresholds are g·k for a
// per-generation contribution k, so counters are never reset and a
// straggler's late arrivals from generation g-1 can never corrupt
// generation g (they were already counted toward g-1's threshold).
//
// Staging-slot reuse is parity-double-buffered like coll.Group, but the
// safety argument is different because fires happen on lanes, concurrent
// with the host: a slot may be reused only once every READER of it has
// finished, and the evidence is counters whose increments are ordered
// after the read. Concretely: a put's payload is lent to the fabric, which
// reads it where it lies, and its MDCTSend increment lands only when the
// fabric gives it back for good, so waiting for the send-counter
// (ctASent/ctBSent) proves nothing reads the slot any more; and
// a delivery's MDCTPut increment lands after the payload write, so a
// crossed threshold proves the data is visible.
package coll

import (
	"fmt"
	"time"

	"repro/portals"
)

// ptlTrig is the portal table index the triggered library claims
// (distinct from ptlColl so host-driven and offloaded groups coexist).
const ptlTrig portals.PtlIndex = 5

// Match-bit constants for the persistent triggered MEs. Exact match
// (ignore 0): arrivals are anonymous counter increments, so nothing
// per-generation needs to ride in the bits.
const (
	mbBarUp   portals.MatchBits = 0x71 // barrier up-wave arrival
	mbBarDn   portals.MatchBits = 0x72 // barrier down-wave release
	mbArAcc   portals.MatchBits = 0x73 // allreduce contribution (accumulating)
	mbArRdy   portals.MatchBits = 0x74 // allreduce parent-ready credit
	mbArDn    portals.MatchBits = 0x75 // allreduce down-wave result
	mbBcData  portals.MatchBits = 0x76 // broadcast payload
	mbBcCred0 portals.MatchBits = 0x77 // broadcast subtree-released credit, first child
	mbBcCred1 portals.MatchBits = 0x78 // broadcast subtree-released credit, second child
)

// TGroup is one member's endpoint of a triggered (NIC-offloaded)
// collective group. Calls must come from a single goroutine, in the same
// order on every member; at most one operation of each class may be
// outstanding (Start without its Wait) at a time. The single-goroutine
// contract is machine-checked: the mutable progress fields below are
// //lint:guardedby confined (docs/LINT.md).
type TGroup struct {
	ni       *portals.NI
	rank     int
	size     int
	ids      []portals.ProcessID
	cfg      Config
	parent   int   // -1 for rank 0
	children []int // ranks 2r+1, 2r+2 when < size

	// mdSig is the persistent zero-length descriptor every signalling put
	// (barrier waves, credits) fires from.
	mdSig portals.Handle

	// Barrier: ctUp counts child arrivals + own, ctDn parent releases.
	ctUp, ctDn portals.Handle
	// Allreduce: ctAr counts contributions + parent-ready, ctADn the
	// down-wave result arrival, ctASent this member's fired data sends.
	ctAr, ctADn, ctASent portals.Handle
	// Bcast: ctBc counts data arrivals, ctBSent fired forwards, and
	// ctCred[i] child i's subtree-released credits. Credits are counted
	// PER CHILD, not summed: the release window needs the minimum over
	// children, and a shared counter cannot distinguish a fast child two
	// generations ahead from both children done (sum-vs-min — the trap
	// that anonymous counting events genuinely cannot express).
	ctBc, ctBSent portals.Handle
	ctCred        [2]portals.Handle

	genBar, genAr, genBc uint64 //lint:guardedby confined  completed generations (next is +1)

	arStage  []byte // 2 parity slots × 8·MaxVec: accumulating reduction
	aDnStage []byte // 2 parity slots × 8·MaxVec: down-wave result
	bcStage  []byte // 2 parity slots × MaxMsg: broadcast payload

	arLen int //lint:guardedby confined  elements in the in-flight allreduce (Start..Wait)
	bcLen int //lint:guardedby confined  bytes in the in-flight bcast

	// Timeout bounds every internal counter wait. Default 30s.
	Timeout time.Duration
}

// NewTGroup arms rank's persistent triggered-collective resources: eight
// counting events, seven counting match entries (none carries an event
// queue — completions are counter increments, not events), and one
// zero-length signalling descriptor. ids must be identical on every
// member.
func NewTGroup(ni *portals.NI, rank int, ids []portals.ProcessID, cfg Config) (*TGroup, error) {
	if rank < 0 || rank >= len(ids) {
		return nil, fmt.Errorf("coll: rank %d out of range", rank)
	}
	cfg = cfg.withDefaults()
	t := &TGroup{
		ni: ni, rank: rank, size: len(ids),
		ids:     append([]portals.ProcessID(nil), ids...),
		cfg:     cfg,
		parent:  (rank - 1) / 2,
		Timeout: 30 * time.Second,
	}
	if rank == 0 {
		t.parent = -1
	}
	for _, c := range []int{2*rank + 1, 2*rank + 2} {
		if c < t.size {
			t.children = append(t.children, c)
		}
	}
	slot := 8 * cfg.MaxVec
	t.arStage = make([]byte, 2*slot)
	t.aDnStage = make([]byte, 2*slot)
	t.bcStage = make([]byte, 2*cfg.MaxMsg)

	for _, ct := range []*portals.Handle{
		&t.ctUp, &t.ctDn, &t.ctAr, &t.ctADn, &t.ctASent,
		&t.ctBc, &t.ctBSent, &t.ctCred[0], &t.ctCred[1],
	} {
		h, err := ni.CTAlloc()
		if err != nil {
			return nil, err
		}
		*ct = h
	}

	// One counting ME per arrival class. MDCTPut routes each delivery into
	// the class's counter; no EQ means no queue to drain or overflow.
	arm := func(mb portals.MatchBits, buf []byte, ct portals.Handle, opts portals.MDOptions) error {
		me, err := ni.MEAttach(ptlTrig, portals.AnyProcess, mb, 0, portals.Retain, portals.After)
		if err != nil {
			return err
		}
		_, err = ni.MDAttach(me, portals.MD{
			Start:     buf,
			Threshold: portals.ThresholdInfinite,
			Options:   portals.MDOpPut | portals.MDManageRemote | portals.MDCTPut | opts,
			CT:        ct,
		}, portals.Retain)
		return err
	}
	if err := arm(mbBarUp, nil, t.ctUp, 0); err != nil {
		return nil, err
	}
	if err := arm(mbBarDn, nil, t.ctDn, 0); err != nil {
		return nil, err
	}
	if err := arm(mbArAcc, t.arStage, t.ctAr, portals.MDAccumulate); err != nil {
		return nil, err
	}
	if err := arm(mbArRdy, nil, t.ctAr, 0); err != nil {
		return nil, err
	}
	if err := arm(mbArDn, t.aDnStage, t.ctADn, 0); err != nil {
		return nil, err
	}
	if err := arm(mbBcData, t.bcStage, t.ctBc, 0); err != nil {
		return nil, err
	}
	if err := arm(mbBcCred0, nil, t.ctCred[0], 0); err != nil {
		return nil, err
	}
	if err := arm(mbBcCred1, nil, t.ctCred[1], 0); err != nil {
		return nil, err
	}

	sig, err := ni.MDBind(portals.MD{Threshold: portals.ThresholdInfinite}, portals.Retain)
	if err != nil {
		return nil, err
	}
	t.mdSig = sig
	return t, nil
}

// Rank and Size report group coordinates.
func (t *TGroup) Rank() int { return t.rank }
func (t *TGroup) Size() int { return t.size }

// nc returns the fan-out below this member.
func (t *TGroup) nc() uint64 { return uint64(len(t.children)) }

// wait blocks for ct's success count to reach threshold under the group
// timeout, translating the miss into a collective error.
func (t *TGroup) wait(ct portals.Handle, threshold uint64, what string) error {
	if _, err := t.ni.CTPoll(ct, threshold, t.Timeout); err != nil {
		return fmt.Errorf("coll: triggered %s: %w", what, err)
	}
	return nil
}

// signal arms a zero-length triggered put from mdSig to dst's mb entry.
func (t *TGroup) signal(dst int, mb portals.MatchBits, on portals.Handle, threshold uint64) error {
	return t.ni.TriggeredPut(t.mdSig, portals.NoAckReq, t.ids[dst], ptlTrig, 0, mb, 0, on, threshold)
}

// BarrierStart arms generation g's chain and contributes this member's
// arrival. The whole wave — leaves' signals combining up the tree, the
// root's turnaround, releases fanning back down — then runs on delivery
// lanes while the host computes.
//
// Per member and generation, ctUp advances by nc+1 (one per child, one
// for self) and ctDn by 1 (the parent's release), so the monotone
// thresholds are g·(nc+1) and g.
func (t *TGroup) BarrierStart() error {
	t.genBar++
	g := t.genBar
	up := g * (t.nc() + 1)
	if t.rank == 0 {
		// Root: subtree complete ⇒ release the children.
		for _, c := range t.children {
			if err := t.signal(c, mbBarDn, t.ctUp, up); err != nil {
				return err
			}
		}
	} else {
		// Non-root: subtree complete ⇒ tell the parent; released ⇒
		// forward the release downward.
		if err := t.signal(t.parent, mbBarUp, t.ctUp, up); err != nil {
			return err
		}
		for _, c := range t.children {
			if err := t.signal(c, mbBarDn, t.ctDn, g); err != nil {
				return err
			}
		}
	}
	return t.ni.CTInc(t.ctUp, portals.CTValue{Success: 1})
}

// BarrierWait blocks until every member has entered generation g's
// barrier.
func (t *TGroup) BarrierWait() error {
	g := t.genBar
	if t.rank == 0 {
		return t.wait(t.ctUp, g*(t.nc()+1), "barrier")
	}
	return t.wait(t.ctDn, g, "barrier")
}

// Barrier blocks until all members arrive.
func (t *TGroup) Barrier() error {
	if err := t.BarrierStart(); err != nil {
		return err
	}
	return t.BarrierWait()
}

// arSlotOff returns the parity staging offset for generation g.
func (t *TGroup) arSlotOff(g uint64) uint64 { return (g % 2) * uint64(8*t.cfg.MaxVec) }

// AllreduceSumStart begins a global float64 sum of vec. The reduction is
// performed BY THE DELIVERY ENGINE: contributions land in an accumulating
// descriptor (MDAccumulate), so by the time a member's arrival counter
// crosses, its staging slot already holds the subtree's sum and the
// pre-armed up-send can forward it with no host math.
//
// Per member and generation, ctAr advances by nc+2 off-root (children's
// contributions + own + the parent-ready credit) and nc+1 at the root
// (no parent). The ready credit orders slot recycling: a child may send
// its subtree sum only after the parent has reinitialised the target
// slot, which the parent signals from its own Start.
func (t *TGroup) AllreduceSumStart(vec []float64) error {
	if len(vec) > t.cfg.MaxVec {
		return fmt.Errorf("coll: vector %d exceeds MaxVec %d", len(vec), t.cfg.MaxVec)
	}
	t.genAr++
	g := t.genAr
	t.arLen = len(vec)
	n := uint64(8 * len(vec))
	off := t.arSlotOff(g)
	nc := t.nc()

	// Reinitialise the parity slot with our own contribution. Safe: the
	// slot's generation-(g-2) readers finished before Wait(g-1) returned
	// (ctASent), and generation-g writers are gated on the ready credits
	// sent below.
	EncodeF64(vec, t.arStage[off:off+n])

	if t.rank != 0 {
		// Subtree sum complete + parent ready ⇒ send our slot upward.
		mdUp, err := t.ni.MDBind(portals.MD{
			Start: t.arStage[off : off+n], Threshold: 1,
			Options: portals.MDCTSend, CT: t.ctASent,
		}, portals.Unlink)
		if err != nil {
			return err
		}
		if err := t.ni.TriggeredPut(mdUp, portals.NoAckReq, t.ids[t.parent],
			ptlTrig, 0, mbArAcc, off, t.ctAr, g*(nc+2)); err != nil {
			return err
		}
	}
	if nc > 0 {
		// Down-wave: the root forwards its finished slot when the subtree
		// completes; inner members forward the result they received. The
		// descriptor's threshold is the fan-out, so it auto-unlinks after
		// its last fire.
		src, on, at := t.aDnStage[off:off+n], t.ctADn, g
		if t.rank == 0 {
			src, on, at = t.arStage[off:off+n], t.ctAr, g*(nc+1)
		}
		mdDn, err := t.ni.MDBind(portals.MD{
			Start: src, Threshold: int32(nc),
			Options: portals.MDCTSend, CT: t.ctASent,
		}, portals.Unlink)
		if err != nil {
			return err
		}
		for _, c := range t.children {
			if err := t.ni.TriggeredPut(mdDn, portals.NoAckReq, t.ids[c],
				ptlTrig, 0, mbArDn, off, on, at); err != nil {
				return err
			}
		}
		// Our slot is reinitialised: release the children's up-sends.
		for _, c := range t.children {
			if err := t.ni.Put(t.mdSig, portals.NoAckReq, t.ids[c], ptlTrig, 0, mbArRdy, 0); err != nil {
				return err
			}
		}
	}
	return t.ni.CTInc(t.ctAr, portals.CTValue{Success: 1})
}

// AllreduceSumWait blocks for the result and decodes it into vec (which
// must be the Start slice, or one of equal length).
func (t *TGroup) AllreduceSumWait(vec []float64) error {
	g := t.genAr
	if len(vec) != t.arLen {
		return fmt.Errorf("coll: wait vector %d != started %d", len(vec), t.arLen)
	}
	off := t.arSlotOff(g)
	nc := t.nc()
	src := t.aDnStage
	if t.rank == 0 {
		if err := t.wait(t.ctAr, g*(nc+1), "allreduce"); err != nil {
			return err
		}
		src = t.arStage
	} else if err := t.wait(t.ctADn, g, "allreduce"); err != nil {
		return err
	}
	DecodeF64(src[off:off+uint64(8*len(vec))], vec)
	// Slot-recycle fence: generation g's fired sends have read their
	// slots once ctASent reaches g·(sends per generation).
	sends := nc
	if t.rank != 0 {
		sends++
	}
	if sends > 0 {
		return t.wait(t.ctASent, g*sends, "allreduce sends")
	}
	return nil
}

// AllreduceSum combines vec across all members by summation; every member
// ends with the result.
func (t *TGroup) AllreduceSum(vec []float64) error {
	if err := t.AllreduceSumStart(vec); err != nil {
		return err
	}
	return t.AllreduceSumWait(vec)
}

// bcWindow enforces the parity-slot recycle window: before starting
// generation g, every child's subtree must have released generation g-2.
// Then (off-root) it forwards the certification one level up — "my
// subtree has released g-2" — which is true because this member consumed
// g-2 before its own Wait(g-2) returned, and the per-child waits just
// proved the subtrees below did too. Credits are host-sent and lazy: they
// gate generation g+2, two collectives behind the data wave, so the
// DATA path — arrival firing the pre-armed fan-out — stays fully on the
// lanes.
func (t *TGroup) bcWindow(g uint64) error {
	if g <= 2 {
		return nil
	}
	for i := range t.children {
		if err := t.wait(t.ctCred[i], g-2, "bcast window"); err != nil {
			return err
		}
	}
	if t.rank != 0 {
		mb := mbBcCred0
		if t.rank == 2*t.parent+2 {
			mb = mbBcCred1
		}
		return t.ni.Put(t.mdSig, portals.NoAckReq, t.ids[t.parent], ptlTrig, 0, mb, 0)
	}
	return nil
}

// BcastStart begins distributing rank 0's buf down the tree (the TGroup
// tree is rooted at 0). Non-root members pre-arm their forwards — data
// arrival (counted after the payload is visible) fires the fan-out to
// their children with no host copy in between.
func (t *TGroup) BcastStart(buf []byte) error {
	if len(buf) > t.cfg.MaxMsg {
		return fmt.Errorf("coll: message %d exceeds MaxMsg %d", len(buf), t.cfg.MaxMsg)
	}
	t.genBc++
	g := t.genBc
	t.bcLen = len(buf)
	off := (g % 2) * uint64(t.cfg.MaxMsg)
	nc := t.nc()

	if err := t.bcWindow(g); err != nil {
		return err
	}
	if t.rank == 0 {
		// The root's sends are host-initiated by nature — it is the data
		// source. startPut copies synchronously, so buf is free on return.
		if nc > 0 {
			md, err := t.ni.MDBind(portals.MD{Start: buf, Threshold: int32(nc)}, portals.Unlink)
			if err != nil {
				return err
			}
			for _, c := range t.children {
				if err := t.ni.Put(md, portals.NoAckReq, t.ids[c], ptlTrig, 0, mbBcData, off); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if nc > 0 {
		mdFw, err := t.ni.MDBind(portals.MD{
			Start: t.bcStage[off : off+uint64(len(buf))], Threshold: int32(nc),
			Options: portals.MDCTSend, CT: t.ctBSent,
		}, portals.Unlink)
		if err != nil {
			return err
		}
		for _, c := range t.children {
			if err := t.ni.TriggeredPut(mdFw, portals.NoAckReq, t.ids[c],
				ptlTrig, 0, mbBcData, off, t.ctBc, g); err != nil {
				return err
			}
		}
	}
	return nil
}

// BcastWait blocks for the payload (non-root) and copies it into buf.
func (t *TGroup) BcastWait(buf []byte) error {
	g := t.genBc
	if len(buf) != t.bcLen {
		return fmt.Errorf("coll: wait buffer %d != started %d", len(buf), t.bcLen)
	}
	if t.rank == 0 {
		return nil
	}
	off := (g % 2) * uint64(t.cfg.MaxMsg)
	if err := t.wait(t.ctBc, g, "bcast"); err != nil {
		return err
	}
	copy(buf, t.bcStage[off:off+uint64(len(buf))])
	if nc := t.nc(); nc > 0 {
		// Forwards have read the slot once their send counter crosses.
		return t.wait(t.ctBSent, g*nc, "bcast forwards")
	}
	return nil
}

// Bcast distributes rank 0's buf to every member.
func (t *TGroup) Bcast(buf []byte) error {
	if err := t.BcastStart(buf); err != nil {
		return err
	}
	return t.BcastWait(buf)
}

// Close frees the group's counting events, discarding any still-armed
// triggered operations without firing them (the unlink-while-armed
// contract of CTFree). Persistent match entries and the signalling
// descriptor are released with the interface.
func (t *TGroup) Close() error {
	var first error
	for _, ct := range []portals.Handle{
		t.ctUp, t.ctDn, t.ctAr, t.ctADn, t.ctASent,
		t.ctBc, t.ctBSent, t.ctCred[0], t.ctCred[1],
	} {
		if err := t.ni.CTFree(ct); err != nil && first == nil {
			first = err
		}
	}
	return first
}
