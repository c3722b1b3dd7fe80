// Package coll implements collective operations DIRECTLY on Portals,
// without a point-to-point message layer in between — the approach of the
// high-performance collective communication library the paper cites (§2)
// for Puma MPI. It provides the same operations twice, as the two ends of
// experiment E15's comparison:
//
//   - Group (this file) is HOST-DRIVEN: the member's goroutine executes
//     each hop of the tree, so a collective's latency adds to whatever
//     compute the host is doing.
//   - TGroup (triggered.go) is NIC-OFFLOADED: the same trees rebuilt as
//     pre-armed triggered-operation chains over counting events
//     (docs/PROTOCOL.md §6), progressing entirely on the delivery lanes
//     so a collective completes UNDER a compute burn.
//
// Group design: every member arms PERSISTENT wildcard match entries at
// group creation (one per operation class), so collective traffic is
// never unexpected and never dropped. Incoming puts carry (operation,
// generation, phase) in their match bits; the library waits for exact
// bits via a small multiset of seen events, so arbitrarily interleaved
// rounds sort themselves out. Data-carrying operations write into
// remotely-managed staging slots, double-buffered by generation parity;
// generation skew between members is bounded to one by the algorithms'
// data dependencies (plus explicit credits for broadcast), so two slots
// per phase suffice. TGroup keeps the staging-slot scheme but replaces
// per-message match bits with anonymous arrivals onto monotone counters —
// triggered.go's preamble explains why that is safe.
//
// Compared with collectives over MPI send/recv, this path has no
// unexpected-message copies, no rendezvous handshakes, and no tag
// matching beyond the hardware walk — the ablation of experiment E7.
package coll

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/portals"
)

// ptlColl is the portal table index the library claims.
const ptlColl portals.PtlIndex = 4

// Operation classes (top nibble of the match bits).
const (
	opBarrier uint64 = 1
	opAllred  uint64 = 2
	opBcast   uint64 = 3
	opAck     uint64 = 4
)

func bits(op uint64, gen uint32, phase int) portals.MatchBits {
	return portals.MatchBits(op<<60 | uint64(gen)<<8 | uint64(phase&0xFF))
}

// opPattern returns the persistent entry's match/ignore for one class.
func opPattern(op uint64) (portals.MatchBits, portals.MatchBits) {
	return portals.MatchBits(op << 60), ^portals.MatchBits(0xF << 60)
}

// Config sizes the persistent staging resources.
type Config struct {
	// MaxVec is the largest Allreduce vector (float64 elements).
	// Default 4096.
	MaxVec int
	// MaxMsg is the largest Bcast payload in bytes. Default 64 KB.
	MaxMsg int
}

func (c Config) withDefaults() Config {
	if c.MaxVec <= 0 {
		c.MaxVec = 4096
	}
	if c.MaxMsg <= 0 {
		c.MaxMsg = 64 * 1024
	}
	return c
}

// Op combines two float64 vectors elementwise into dst. Op, the built-in
// operators and the vector codec below are the arithmetic all three
// collectives stacks share (Group, TGroup and internal/mpi's point-to-point
// collectives, which aliases them): the stacks differ in who progresses the
// tree, not in what a reduction computes or how a vector travels.
type Op func(dst, src []float64)

// Built-in operators.
var (
	Sum Op = func(dst, src []float64) {
		for i := range dst {
			dst[i] += src[i]
		}
	}
	Max Op = func(dst, src []float64) {
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}
	Min Op = func(dst, src []float64) {
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}
)

// Group is one member's endpoint of a collective group. Calls must come
// from a single goroutine, in the same order on every member.
type Group struct {
	ni   *portals.NI
	rank int
	size int
	ids  []portals.ProcessID
	cfg  Config

	eq   portals.Handle
	seen map[portals.MatchBits]int
	gen  uint32

	arStage []byte // allreduce staging: phases × 2 gens × slot
	bcStage []byte // bcast staging: 2 gens × MaxMsg
	arSlot  int
	phases  int

	// Timeout bounds every internal wait; a peer that never arrives
	// surfaces as an error instead of a hang. Default 30s.
	Timeout time.Duration
}

// NewGroup arms rank's persistent collective resources. ids must be
// identical on every member.
func NewGroup(ni *portals.NI, rank int, ids []portals.ProcessID, cfg Config) (*Group, error) {
	if rank < 0 || rank >= len(ids) {
		return nil, fmt.Errorf("coll: rank %d out of range", rank)
	}
	cfg = cfg.withDefaults()
	g := &Group{
		ni: ni, rank: rank, size: len(ids),
		ids: append([]portals.ProcessID(nil), ids...),
		cfg: cfg, seen: make(map[portals.MatchBits]int),
		Timeout: 30 * time.Second,
	}
	// Phases: fold-in + ⌊log2⌋ doubling rounds + fold-out.
	r := 0
	for 1<<(r+1) <= g.size {
		r++
	}
	g.phases = r + 2
	g.arSlot = 8 * cfg.MaxVec
	g.arStage = make([]byte, g.phases*2*g.arSlot)
	g.bcStage = make([]byte, 2*cfg.MaxMsg)

	eq, err := ni.EQAlloc(4096)
	if err != nil {
		return nil, err
	}
	g.eq = eq

	arm := func(op uint64, buf []byte) error {
		b, ig := opPattern(op)
		me, err := ni.MEAttach(ptlColl, portals.AnyProcess, b, ig, portals.Retain, portals.After)
		if err != nil {
			return err
		}
		_, err = ni.MDAttach(me, portals.MD{
			Start:     buf,
			Threshold: portals.ThresholdInfinite,
			Options:   portals.MDOpPut | portals.MDManageRemote | portals.MDTruncate,
			EQ:        eq,
		}, portals.Retain)
		return err
	}
	if err := arm(opBarrier, nil); err != nil {
		return nil, err
	}
	if err := arm(opAllred, g.arStage); err != nil {
		return nil, err
	}
	if err := arm(opBcast, g.bcStage); err != nil {
		return nil, err
	}
	if err := arm(opAck, nil); err != nil {
		return nil, err
	}
	return g, nil
}

// Rank and Size report group coordinates.
func (g *Group) Rank() int { return g.rank }
func (g *Group) Size() int { return g.size }

// put emits one collective message; send-side events are suppressed (no
// EQ on the descriptor) so the wait loop sees only arrivals.
func (g *Group) put(dst int, b portals.MatchBits, data []byte, offset uint64) error {
	md, err := g.ni.MDBind(portals.MD{Start: data, Threshold: 1}, portals.Unlink)
	if err != nil {
		return err
	}
	return g.ni.Put(md, portals.NoAckReq, g.ids[dst], ptlColl, 0, b, offset)
}

// waitBits consumes one arrival carrying exactly b, buffering others.
func (g *Group) waitBits(b portals.MatchBits) error {
	deadline := time.Now().Add(g.Timeout)
	for g.seen[b] == 0 {
		ev, err := g.ni.EQPoll(g.eq, time.Until(deadline))
		if errors.Is(err, portals.ErrEQEmpty) {
			return fmt.Errorf("coll: timed out waiting for %x", uint64(b))
		}
		if err != nil && !errors.Is(err, portals.ErrEQDropped) {
			return err
		}
		if ev.Type == portals.EventPut {
			g.seen[ev.MatchBits]++
		}
	}
	g.seen[b]--
	return nil
}

// Barrier blocks until all members arrive (dissemination, zero-length
// puts into the persistent barrier entry).
func (g *Group) Barrier() error {
	gen := g.gen
	g.gen++
	round := 0
	for dist := 1; dist < g.size; dist *= 2 {
		dst := (g.rank + dist) % g.size
		b := bits(opBarrier, gen, round)
		if err := g.put(dst, b, nil, 0); err != nil {
			return err
		}
		if err := g.waitBits(b); err != nil {
			return err
		}
		round++
	}
	return nil
}

// arOffset computes the staging offset for (gen, phase) — identical
// layout on every member.
func (g *Group) arOffset(gen uint32, phase int) uint64 {
	return uint64((int(gen%2)*g.phases + phase) * g.arSlot)
}

// arSlotData returns the received vector bytes for (gen, phase).
func (g *Group) arSlotData(gen uint32, phase int, n int) []byte {
	off := g.arOffset(gen, phase)
	return g.arStage[off : off+uint64(8*n)]
}

// Allreduce combines vec across all members with op; every member ends
// with the result. Recursive doubling with fold-in/fold-out for
// non-power-of-two sizes.
func (g *Group) Allreduce(vec []float64, op Op) error {
	if len(vec) > g.cfg.MaxVec {
		return fmt.Errorf("coll: vector %d exceeds MaxVec %d", len(vec), g.cfg.MaxVec)
	}
	gen := g.gen
	g.gen++
	pow2 := 1
	for pow2*2 <= g.size {
		pow2 *= 2
	}
	extra := g.size - pow2
	tmp := make([]float64, len(vec))
	out := make([]byte, 8*len(vec))

	combineFrom := func(phase int) error {
		if err := g.waitBits(bits(opAllred, gen, phase)); err != nil {
			return err
		}
		DecodeF64(g.arSlotData(gen, phase, len(vec)), tmp)
		op(vec, tmp)
		return nil
	}

	if g.rank >= pow2 {
		// Fold in, then wait for the folded-out result.
		if err := g.put(g.rank-pow2, bits(opAllred, gen, 0), EncodeF64(vec, out), g.arOffset(gen, 0)); err != nil {
			return err
		}
		last := g.phases - 1
		if err := g.waitBits(bits(opAllred, gen, last)); err != nil {
			return err
		}
		DecodeF64(g.arSlotData(gen, last, len(vec)), vec)
		return nil
	}
	if g.rank < extra {
		if err := combineFrom(0); err != nil {
			return err
		}
	}
	for p, dist := 1, 1; dist < pow2; p, dist = p+1, dist*2 {
		partner := g.rank ^ dist
		if err := g.put(partner, bits(opAllred, gen, p), EncodeF64(vec, out), g.arOffset(gen, p)); err != nil {
			return err
		}
		if err := combineFrom(p); err != nil {
			return err
		}
	}
	if g.rank < extra {
		last := g.phases - 1
		if err := g.put(g.rank+pow2, bits(opAllred, gen, last), EncodeF64(vec, out), g.arOffset(gen, last)); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's buf to every member (binomial tree over the
// persistent broadcast slot, child credits bounding slot reuse).
func (g *Group) Bcast(buf []byte, root int) error {
	if len(buf) > g.cfg.MaxMsg {
		return fmt.Errorf("coll: message %d exceeds MaxMsg %d", len(buf), g.cfg.MaxMsg)
	}
	if root < 0 || root >= g.size {
		return fmt.Errorf("coll: root %d out of range", root)
	}
	gen := g.gen
	g.gen++
	vrank := (g.rank - root + g.size) % g.size
	slot := uint64(int(gen%2) * g.cfg.MaxMsg)

	// Receive from the parent, if any.
	mask := 1
	parent := -1
	for mask < g.size {
		if vrank&mask != 0 {
			parent = ((vrank &^ mask) + root) % g.size
			if err := g.waitBits(bits(opBcast, gen, 0)); err != nil {
				return err
			}
			copy(buf, g.bcStage[slot:slot+uint64(len(buf))])
			// Credit the parent: our slot for gen is drained.
			if err := g.put(parent, bits(opAck, gen, 0), nil, 0); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	// Forward to children, then collect their credits.
	children := 0
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < g.size {
			to := ((vrank + mask) + root) % g.size
			if err := g.put(to, bits(opBcast, gen, 0), buf, slot); err != nil {
				return err
			}
			children++
		}
	}
	for i := 0; i < children; i++ {
		if err := g.waitBits(bits(opAck, gen, 0)); err != nil {
			return err
		}
	}
	return nil
}

// EncodeF64 writes v into buf as little-endian IEEE-754 doubles and returns
// the 8*len(v) bytes written.
func EncodeF64(v []float64, buf []byte) []byte {
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	return buf[:8*len(v)]
}

// DecodeF64 fills v from the little-endian doubles at the head of buf.
func DecodeF64(buf []byte, v []float64) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
}
