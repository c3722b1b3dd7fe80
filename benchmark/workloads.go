package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/nicsim"
	"repro/internal/obs/metrics"
	"repro/internal/rtscts"
	"repro/internal/transport"
	"repro/internal/transport/loopback"
	"repro/internal/transport/simnet"
	"repro/internal/transport/tcp"
	"repro/internal/transport/udp"
	"repro/internal/types"
	"repro/portals"
)

// fabricSpec names the network under a workload. Simulated fabrics carry
// no wire time (zero Latency/Bandwidth): the Myrinet preset spin-waits and
// paces at 160 MB/s, which would measure the pacer, not the code.
type fabricSpec struct {
	kind string        // "loopback", "simnet", "udp" or "tcp"
	sim  simnet.Config // simnet only; Seed is filled from the run's seed
}

func (f fabricSpec) label() string {
	switch f.kind {
	case "simnet":
		return fmt.Sprintf("simnet+rtscts, in-process, zero wire time, mtu %d, loss %g, reorder %g",
			f.sim.MTU, f.sim.LossRate, f.sim.ReorderRate)
	case "udp", "tcp":
		return f.kind + " over real kernel sockets on the host's loopback interface (no physical link)"
	}
	return "loopback, in-process queues"
}

func (f fabricSpec) simConfig(seed int64) simnet.Config {
	c := f.sim
	c.Seed = seed
	return c
}

// reliability is the rtscts configuration over a simulated fabric. The
// default clamps the adaptive retransmit timeout at 1 ms from below, and
// on a zero-wire fabric that floor is what applies: every stall of the
// host longer than 1 ms — routine on a shared machine — then fires a
// spurious Go-Back-N resend and halves the window, which multiplies the
// stall. Where the fabric loses nothing the timer is not what the workload
// measures, so its floor is raised clear of such stalls; where it does
// lose packets the default stands, because there recovery is the point.
func (f fabricSpec) reliability() rtscts.Config {
	c := rtscts.DefaultConfig()
	if f.sim.LossRate == 0 {
		c.RTO, c.RTOMin = 200*time.Millisecond, 200*time.Millisecond
	}
	return c
}

// fabric is the public-API form of the network.
func (f fabricSpec) fabric(seed int64) portals.Fabric {
	switch f.kind {
	case "simnet":
		return portals.SimFabric(f.simConfig(seed), f.reliability())
	case "udp":
		return portals.UDP()
	case "tcp":
		return portals.TCP()
	}
	return portals.Loopback()
}

// raw is the same network as a bare transport.Network, for the traced
// run's transport probe.
func (f fabricSpec) raw(seed int64) transport.Network {
	switch f.kind {
	case "simnet":
		return rtscts.NewNetwork(simnet.New(f.simConfig(seed)), f.reliability())
	case "udp":
		return udp.New()
	case "tcp":
		return tcp.New()
	}
	return loopback.New()
}

// opChain says which ladder rows one operation's blocking chain is made
// of, so the traced run can subtract them from the measured latency.
type opChain int

const (
	chainPingPong opChain = iota // 2 × (start_put, oneway, handle_put, poll_wake)
	chainPutAck                  // start_put, oneway, handle_put, oneway_ctl, handle_ack, poll_wake
)

// workload is one named set of inputs.
type workload struct {
	name      string
	why       string
	fabric    fabricSpec
	size      int // payload bytes per operation
	warmupOps int // fixed warm-up count, sized so set-up takes ≥ 0.2 s on a 2-core box
	chain     opChain
	mpi       bool // operations are MPI Send/Recv, not Portals calls
	// gated workloads are the ones BENCHMARK.json declares: those whose
	// timings repeat within the bounds on a shared two-core host. The others
	// run in sets (`go run ./benchmark`) and by name, but carry no bound.
	gated  bool
	ladder ladderShape
	// msgBytes are the wire sizes of the transport messages one operation
	// needs, and ctlPkts the rendezvous control packets on top (RTS + CTS):
	// together the fewest packets a packet fabric can spend on it.
	msgBytes []int
	ctlPkts  int
	build    func(w *workload, seed int64) (*instance, error)
}

const (
	benchPtl  = portals.PtlIndex(4)
	putBits   = portals.MatchBits(0x5055)
	getBits   = portals.MatchBits(0x4745)
	stampStep = 4096 // a stamp opens every 4 KiB block, so each fragment of a long message carries one
)

// minPkts is the fewest packets one operation needs when a packet carries
// chunk payload bytes.
func (w *workload) minPkts(chunk int) float64 {
	n := w.ctlPkts
	for _, b := range w.msgBytes {
		n += (b + chunk - 1) / chunk
	}
	return float64(n)
}

var workloads = []*workload{
	{
		name:   "pp0_loopback",
		gated:  true,
		why:    "0-byte NoAckReq ping-pong over the do-nothing transport: portals+core+eventq+nicsim are all the work (paper E3; eventq.Poll timer allocs). Transport changes must not move it.",
		fabric: fabricSpec{kind: "loopback"}, size: 0, warmupOps: 60_000, chain: chainPingPong,
		ladder: ladderShape{endpoints: 1, mes: 1, targetEQ: true},
		build:  buildPingPong,
	},
	{
		name:   "pp64_simnet",
		gated:  true,
		why:    "64-byte ping-pong over zero-wire simnet+rtscts: the reliability layer's no-loss fast path does most of the work; engine-only changes move it by at most their pp0_loopback saving.",
		fabric: fabricSpec{kind: "simnet", sim: simnet.Config{MTU: 4096}}, size: 64, warmupOps: 24_000, chain: chainPingPong,
		ladder:   ladderShape{endpoints: 1, mes: 1, targetEQ: true},
		msgBytes: []int{64 + 80, 64 + 80},
		build:    buildPingPong,
	},
	{
		name:   "bulk256k_simnet",
		gated:  true,
		why:    "256 KiB put+ack, window 4, RTS/CTS rendezvous, 65 fragments: bytes dominate (copies, packetisation, pooled buffers); fixed per-message costs are diluted. Shows a transport-seam collapse.",
		fabric: fabricSpec{kind: "simnet", sim: simnet.Config{MTU: 4096}}, size: 256 << 10, warmupOps: 600, chain: chainPutAck,
		ladder:   ladderShape{endpoints: 1, mes: 1, targetEQ: true},
		msgBytes: []int{256<<10 + 80, 80}, ctlPkts: 2,
		build: putGetBuilder(1, 4, 0),
	},
	{
		name:   "lossy4k_simnet",
		why:    "4 KiB put+ack, window 16, 2% loss + 1% reorder, seeded: the only workload where retransmission policy matters; a fast-path gain that costs recovery shows here, not on pp64_simnet.",
		fabric: fabricSpec{kind: "simnet", sim: simnet.Config{MTU: 4096, LossRate: 0.02, ReorderRate: 0.01}},
		size:   4096, warmupOps: 5_000, chain: chainPutAck,
		ladder:   ladderShape{endpoints: 1, mes: 1, targetEQ: true},
		msgBytes: []int{4096 + 80, 80},
		build:    putGetBuilder(1, 16, 0),
	},
	{
		name:   "putget1k_udp",
		why:    "2 initiator nodes, window 8 each, seeded 70% put+ack / 30% get of 1 KiB into one target over kernel UDP: the reply path beside writes, lane dispatch and sendmmsg batching on real sockets.",
		fabric: fabricSpec{kind: "udp"}, size: 1024, warmupOps: 18_000, chain: chainPutAck,
		ladder:   ladderShape{endpoints: 1, mes: 2, targetEQ: true},
		msgBytes: []int{1024 + 80, 80}, // put + ack, or get request + reply
		build:    putGetBuilder(2, 8, 0.3),
	},
	{
		name:   "mpi_pp8k_tcp",
		why:    "MPI over Portals, the paper's client, on kernel TCP: 8 KiB eager Send/Recv ping-pong. Per-send MD bind/unlink churn, posted/unexpected matching, TCP framing; guards mpi consolidation.",
		fabric: fabricSpec{kind: "tcp"}, size: 8192, warmupOps: 6_000, chain: chainPingPong, mpi: true,
		ladder: ladderShape{endpoints: 1, mes: 2, targetEQ: true},
		build:  buildMPI,
	},
	{
		name:   "swarm16k_loopback",
		why:    "16384 endpoints x 10 match entries on 16 nodes, window 64, 64 B put+ack to seeded random targets: working set far beyond the LLC, so rcu tables, arenas and the match index pay cache misses.",
		fabric: fabricSpec{kind: "loopback"}, size: 64, warmupOps: 60_000, chain: chainPutAck,
		ladder: ladderShape{endpoints: swarmEndpoints, mes: swarmMEs},
		build:  buildSwarm,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- payloads -----------------------------------------------------------

// pattern returns n seeded bytes.
func pattern(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b) // math/rand's Read never fails
	return b
}

// stamp writes the operation number at the head of every 4 KiB block.
func stamp(buf []byte, seq uint64) {
	for off := 0; off+8 <= len(buf); off += stampStep {
		binary.LittleEndian.PutUint64(buf[off:], seq)
	}
}

// checkStamped reports whether got is pat stamped with seq, byte for byte.
func checkStamped(got, pat []byte, seq uint64) bool {
	if len(got) != len(pat) {
		return false
	}
	for off := 0; off < len(got); off += stampStep {
		end := off + stampStep
		if end > len(got) {
			end = len(got)
		}
		body := off
		if end-off >= 8 {
			if binary.LittleEndian.Uint64(got[off:]) != seq {
				return false
			}
			body = off + 8
		}
		if !bytes.Equal(got[body:end], pat[body:end]) {
			return false
		}
	}
	return true
}

// nextCompletion blocks for the next event that is not a local send
// completion.
func nextCompletion(ni *portals.NI, eq portals.Handle) (portals.Event, error) {
	for {
		ev, err := ni.EQPoll(eq, opTimeout)
		if err != nil {
			if errors.Is(err, portals.ErrEQEmpty) {
				return ev, fmt.Errorf("no completion within %v", opTimeout)
			}
			return ev, err
		}
		if ev.Type != portals.EventSend {
			return ev, nil
		}
	}
}

// machineCounters registers every layer of m once and returns a snapshot
// function over the registry.
func machineCounters(m *portals.Machine) func() counters {
	reg := metrics.NewRegistry()
	m.RegisterMetrics(reg)
	return func() counters { return readRegistry(reg) }
}

// noDrops is the drain-time check that no interface discarded a message.
func noDrops(nis ...*portals.NI) error {
	for _, ni := range nis {
		if st := ni.Status(); st.Dropped != 0 {
			return fmt.Errorf("interface %v dropped %d messages: %v", ni.ID(), st.Dropped, st.Drops)
		}
	}
	return nil
}

// ---- ping-pong ----------------------------------------------------------

// pingPong is one side of the classic latency test: a persistent send
// descriptor, one sink, and an event queue the side blocks on.
type pingPong struct {
	ni      *portals.NI
	peer    portals.ProcessID
	md      portals.Handle
	eq      portals.Handle
	send    []byte // own pattern, stamped per operation
	sink    []byte
	peerPat []byte // what the peer's payload looks like before stamping
	seq     uint64
}

func newPingPong(ni *portals.NI, peer portals.ProcessID, own, peerPat []byte) (*pingPong, error) {
	p := &pingPong{ni: ni, peer: peer, send: append([]byte(nil), own...), sink: make([]byte, len(own)), peerPat: peerPat}
	var err error
	if p.eq, err = ni.EQAlloc(64); err != nil {
		return nil, err
	}
	me, err := ni.MEAttach(benchPtl, portals.AnyProcess, putBits, 0, portals.Retain, portals.After)
	if err != nil {
		return nil, err
	}
	if _, err = ni.MDAttach(me, portals.MD{
		Start: p.sink, Threshold: portals.ThresholdInfinite,
		Options: portals.MDOpPut | portals.MDManageRemote, EQ: p.eq,
	}, portals.Retain); err != nil {
		return nil, err
	}
	p.md, err = ni.MDBind(portals.MD{Start: p.send, Threshold: portals.ThresholdInfinite}, portals.Retain)
	return p, err
}

func (p *pingPong) put(seq uint64) error {
	stamp(p.send, seq)
	return p.ni.Put(p.md, portals.NoAckReq, p.peer, benchPtl, 0, putBits, 0)
}

// recv blocks for the peer's put and verifies it carries seq.
func (p *pingPong) recv(seq uint64) error {
	ev, err := nextCompletion(p.ni, p.eq)
	if err != nil {
		return err
	}
	if ev.Type != portals.EventPut || ev.MLength != uint64(len(p.sink)) || ev.Initiator != p.peer {
		return fmt.Errorf("op %d: unexpected event %v mlength %d from %v", seq, ev.Type, ev.MLength, ev.Initiator)
	}
	if !checkStamped(p.sink, p.peerPat, seq) {
		return fmt.Errorf("op %d: delivered payload does not match", seq)
	}
	return nil
}

func (p *pingPong) issue(_ int, seq uint64) error {
	p.seq = seq
	return p.put(seq)
}

func (p *pingPong) complete() (int, error) { return 0, p.recv(p.seq) }

// echoer runs the far side of a ping-pong on its own goroutine and
// remembers the first thing that went wrong.
type echoer struct {
	stopping atomic.Bool
	done     chan struct{}
	err      error // written by the goroutine before done closes
}

// start runs serve(seq) for seq = 0, 1, ... until it fails; a failure
// after stop was called is the expected teardown.
func (e *echoer) start(serve func(seq uint64) error) {
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		for seq := uint64(0); ; seq++ {
			if err := serve(seq); err != nil {
				if !e.stopping.Load() {
					e.err = fmt.Errorf("echo side, op %d: %w", seq, err)
				}
				return
			}
		}
	}()
}

// stop marks the teardown as expected; wait returns once the goroutine has
// exited, with its error.
func (e *echoer) stop() { e.stopping.Store(true) }

func (e *echoer) wait() error {
	<-e.done
	return e.err
}

// failed reports an error the echo side hit while the run was still going.
func (e *echoer) failed() error {
	select {
	case <-e.done:
		return e.err
	default:
		return nil
	}
}

func buildPingPong(w *workload, seed int64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	m := portals.NewMachine(w.fabric.fabric(seed))
	a, err := m.NIInit(1, 1, portals.Limits{})
	if err != nil {
		return nil, errors.Join(err, m.Close())
	}
	b, err := m.NIInit(2, 1, portals.Limits{})
	if err != nil {
		return nil, errors.Join(err, m.Close())
	}
	patA, patB := pattern(rng, w.size), pattern(rng, w.size)
	ping, err := newPingPong(a, b.ID(), patA, patB)
	if err != nil {
		return nil, errors.Join(err, m.Close())
	}
	pong, err := newPingPong(b, a.ID(), patB, patA)
	if err != nil {
		return nil, errors.Join(err, m.Close())
	}
	echo := &echoer{}
	echo.start(func(seq uint64) error {
		if err := pong.recv(seq); err != nil {
			return err
		}
		return pong.put(seq)
	})
	return &instance{
		loops:    []*loop{{src: ping, window: 1, payload: 2 * w.size}},
		nis:      2,
		snapshot: machineCounters(m),
		check: func() error {
			if err := echo.failed(); err != nil {
				return err
			}
			return noDrops(a, b)
		},
		close: func() error {
			echo.stop()
			err := m.Close()
			return errors.Join(err, echo.wait())
		},
	}, nil
}

// ---- put+ack / get+reply ------------------------------------------------

// pgSlot is one window slot of a put/get driver: its own source buffer and
// descriptors, so a slot's bytes stay put until its completion is checked.
type pgSlot struct {
	idx   int
	buf   []byte // put source, or get landing zone
	pat   []byte // the put pattern before stamping
	putMD portals.Handle
	getMD portals.Handle
	isGet bool
	off   uint64 // remote offset of the outstanding operation
}

// putGet drives acknowledged puts and gets from one initiator interface
// into one target.
type putGet struct {
	ni       *portals.NI
	eq       portals.Handle
	target   portals.ProcessID
	size     int
	slots    []*pgSlot
	sink     []byte // the target's put region, one block per (driver, slot)
	sinkBase int    // this driver's first block
	source   []byte // the target's get region
	getShare float64
	rng      *rand.Rand
}

func (d *putGet) issue(slot int, seq uint64) error {
	s := d.slots[slot]
	s.isGet = d.getShare > 0 && d.rng.Float64() < d.getShare
	if s.isGet {
		s.off = uint64(d.rng.Intn(len(d.source)/d.size)) * uint64(d.size)
		return d.ni.Get(s.getMD, d.target, benchPtl, 0, getBits, s.off)
	}
	if d.getShare > 0 {
		copy(s.buf, s.pat) // a get may have landed here since the last put
	}
	stamp(s.buf, seq)
	s.off = uint64((d.sinkBase + slot) * d.size)
	return d.ni.Put(s.putMD, portals.AckReq, d.target, benchPtl, 0, putBits, s.off)
}

func (d *putGet) complete() (int, error) {
	ev, err := nextCompletion(d.ni, d.eq)
	if err != nil {
		return 0, err
	}
	s, ok := ev.UserPtr.(*pgSlot)
	if !ok {
		return 0, fmt.Errorf("completion %v carries no slot", ev.Type)
	}
	want := portals.EventAck
	remote := d.sink
	if s.isGet {
		want, remote = portals.EventReply, d.source
	}
	if ev.Type != want || ev.MLength != uint64(d.size) {
		return s.idx, fmt.Errorf("slot %d: event %v mlength %d, want %v of %d", s.idx, ev.Type, ev.MLength, want, d.size)
	}
	if !bytes.Equal(s.buf, remote[s.off:s.off+uint64(d.size)]) {
		return s.idx, fmt.Errorf("slot %d: %v payload does not match the peer's memory", s.idx, ev.Type)
	}
	return s.idx, nil
}

// putGetBuilder builds one target node and `drivers` initiator nodes, each
// keeping `window` operations outstanding, a getShare fraction of them
// gets.
func putGetBuilder(drivers, window int, getShare float64) func(*workload, int64) (*instance, error) {
	return func(w *workload, seed int64) (*instance, error) {
		return buildPutGet(w, seed, drivers, window, getShare)
	}
}

func buildPutGet(w *workload, seed int64, drivers, window int, getShare float64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	m := portals.NewMachine(w.fabric.fabric(seed))
	fail := func(err error) (*instance, error) { return nil, errors.Join(err, m.Close()) }

	tgt, err := m.NIInit(1, 1, portals.Limits{})
	if err != nil {
		return fail(err)
	}
	sink := make([]byte, drivers*window*w.size)
	source := pattern(rng, 64*w.size)
	attach := func(bits portals.MatchBits, region []byte, op portals.MDOptions) error {
		me, err := tgt.MEAttach(benchPtl, portals.AnyProcess, bits, 0, portals.Retain, portals.After)
		if err != nil {
			return err
		}
		_, err = tgt.MDAttach(me, portals.MD{
			Start: region, Threshold: portals.ThresholdInfinite, Options: op | portals.MDManageRemote,
		}, portals.Retain)
		return err
	}
	if err := attach(putBits, sink, portals.MDOpPut); err != nil {
		return fail(err)
	}
	if err := attach(getBits, source, portals.MDOpGet); err != nil {
		return fail(err)
	}

	inst := &instance{nis: 1 + drivers}
	nis := []*portals.NI{tgt}
	for d := 0; d < drivers; d++ {
		ni, err := m.NIInit(portals.NID(2+d), 1, portals.Limits{})
		if err != nil {
			return fail(err)
		}
		nis = append(nis, ni)
		drv := &putGet{
			ni: ni, target: tgt.ID(), size: w.size, sink: sink, sinkBase: d * window, source: source,
			getShare: getShare, rng: rand.New(rand.NewSource(seed + int64(d) + 1)),
		}
		if drv.eq, err = ni.EQAlloc(4*window + 16); err != nil {
			return fail(err)
		}
		for s := 0; s < window; s++ {
			slot := &pgSlot{idx: s, pat: pattern(rng, w.size)}
			slot.buf = append([]byte(nil), slot.pat...)
			md := portals.MD{Start: slot.buf, Threshold: portals.ThresholdInfinite, EQ: drv.eq, UserPtr: slot}
			if slot.putMD, err = ni.MDBind(md, portals.Retain); err != nil {
				return fail(err)
			}
			if getShare > 0 {
				if slot.getMD, err = ni.MDBind(md, portals.Retain); err != nil {
					return fail(err)
				}
			}
			drv.slots = append(drv.slots, slot)
		}
		inst.loops = append(inst.loops, &loop{src: drv, window: window, payload: w.size})
	}
	inst.snapshot = machineCounters(m)
	inst.check = func() error { return noDrops(nis...) }
	inst.close = m.Close
	return inst, nil
}

// ---- MPI ----------------------------------------------------------------

// mpiPing is rank 0 of an MPI Send/Recv ping-pong.
type mpiPing struct {
	comm    *mpi.Comm
	send    []byte
	recv    []byte
	peerPat []byte
	seq     uint64
}

const mpiTag = 7

func (p *mpiPing) issue(_ int, seq uint64) error {
	p.seq = seq
	stamp(p.send, seq)
	return p.comm.Send(p.send, 1, mpiTag)
}

func (p *mpiPing) complete() (int, error) { return 0, mpiRecv(p.comm, p.recv, p.peerPat, 1, p.seq) }

func mpiRecv(c *mpi.Comm, buf, pat []byte, from int, seq uint64) error {
	st, err := c.Recv(buf, from, mpiTag)
	if err != nil {
		return err
	}
	if st.Count != len(buf) || st.Source != from {
		return fmt.Errorf("op %d: received %d bytes from rank %d", seq, st.Count, st.Source)
	}
	if !checkStamped(buf, pat, seq) {
		return fmt.Errorf("op %d: received payload does not match", seq)
	}
	return nil
}

func buildMPI(w *workload, seed int64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	m := portals.NewMachine(w.fabric.fabric(seed))
	world, err := mpi.NewWorld(m, 2, mpi.Config{})
	if err != nil {
		return nil, errors.Join(err, m.Close())
	}
	pat0, pat1 := pattern(rng, w.size), pattern(rng, w.size)
	ping := &mpiPing{comm: world.Comm(0), send: append([]byte(nil), pat0...), recv: make([]byte, w.size), peerPat: pat1}
	send1, recv1 := append([]byte(nil), pat1...), make([]byte, w.size)
	echo := &echoer{}
	echo.start(func(seq uint64) error {
		if err := mpiRecv(world.Comm(1), recv1, pat0, 0, seq); err != nil {
			return err
		}
		stamp(send1, seq)
		return world.Comm(1).Send(send1, 0, mpiTag)
	})
	return &instance{
		loops:    []*loop{{src: ping, window: 1, payload: 2 * w.size}},
		nis:      2,
		snapshot: machineCounters(m),
		check:    echo.failed,
		close: func() error {
			echo.stop()
			err := m.Close()
			return errors.Join(err, echo.wait())
		},
	}, nil
}

// ---- swarm --------------------------------------------------------------

const (
	swarmEndpoints = 16384
	swarmMEs       = 10
	swarmNodes     = 16
	swarmWindow    = 64
	swarmDriverNID = types.NID(10_000)
)

// swarmDriver issues acknowledged puts to seeded random endpoints. It
// works on core.State and nicsim.Node directly, the way internal/swarm
// does: bulk process registration has no public-API form.
type swarmDriver struct {
	state   *core.State
	node    *nicsim.Node
	eq      types.Handle
	slots   []*swarmSlot
	targets []types.ProcessID
	sinks   [][]byte
	busy    []bool // endpoints with a put in flight; their sink is not redrawn until checked
	rng     *rand.Rand
}

type swarmSlot struct {
	idx    int
	buf    []byte
	md     types.Handle
	target int
}

func (d *swarmDriver) issue(slot int, seq uint64) error {
	s := d.slots[slot]
	t := d.rng.Intn(len(d.targets))
	for d.busy[t] {
		t = d.rng.Intn(len(d.targets))
	}
	d.busy[t], s.target = true, t
	stamp(s.buf, seq)
	bits := types.MatchBits(d.rng.Intn(swarmMEs))
	out, err := d.state.StartPut(s.md, types.AckReq, d.targets[t], 0, 0, bits, 0)
	if err != nil {
		return err
	}
	return d.node.Send(out)
}

func (d *swarmDriver) complete() (int, error) {
	for {
		ev, err := d.state.EQPoll(d.eq, opTimeout)
		if err != nil {
			if errors.Is(err, types.ErrEQEmpty) {
				return 0, fmt.Errorf("no completion within %v", opTimeout)
			}
			return 0, err
		}
		if ev.Type == types.EventSend {
			continue
		}
		s, ok := ev.UserPtr.(*swarmSlot)
		if !ok || ev.Type != types.EventAck || ev.MLength != uint64(len(s.buf)) {
			return 0, fmt.Errorf("unexpected completion %v mlength %d", ev.Type, ev.MLength)
		}
		d.busy[s.target] = false
		if !bytes.Equal(s.buf, d.sinks[s.target]) {
			return s.idx, fmt.Errorf("slot %d: endpoint %d holds different bytes", s.idx, s.target)
		}
		return s.idx, nil
	}
}

func buildSwarm(w *workload, seed int64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	net := loopback.New()
	var nodes []*nicsim.Node
	closeAll := func() error {
		for _, n := range nodes {
			_ = n.Close() // nicsim.Node.Close only ever returns nil
		}
		return net.Close()
	}
	fail := func(err error) (*instance, error) { return nil, errors.Join(err, closeAll()) }

	regs := make([]map[types.PID]*core.State, swarmNodes)
	for i := range regs {
		n, err := nicsim.NewNode(net, types.NID(i+1), nicsim.Config{Lanes: 1})
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, n)
		regs[i] = make(map[types.PID]*core.State, swarmEndpoints/swarmNodes)
	}
	limits := types.Limits{MaxMEs: swarmMEs + 1, MaxMDs: swarmMEs + 1, MaxEQs: 1, MaxACEntries: 2, MaxPtlIndex: 1}
	drv := &swarmDriver{
		targets: make([]types.ProcessID, swarmEndpoints), sinks: make([][]byte, swarmEndpoints),
		busy: make([]bool, swarmEndpoints), rng: rand.New(rand.NewSource(seed + 1)),
	}
	states := make([]*core.State, 0, swarmEndpoints+1)
	for i := 0; i < swarmEndpoints; i++ {
		ni := i % swarmNodes
		self := types.ProcessID{NID: types.NID(ni + 1), PID: types.PID(1 + i/swarmNodes)}
		st := core.NewState(self, limits, nil, nil)
		// One sink per endpoint, shared by its descriptors, as in
		// internal/swarm: deliveries into it serialise on the portal lock.
		drv.sinks[i] = make([]byte, w.size)
		for j := 0; j < swarmMEs; j++ {
			me, err := st.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny},
				types.MatchBits(j), 0, types.Retain, types.After)
			if err != nil {
				return fail(err)
			}
			if _, err := st.MDAttach(me, core.MD{
				Start: drv.sinks[i], Threshold: types.ThresholdInfinite,
				Options: types.MDOpPut | types.MDManageRemote | types.MDTruncate,
			}, types.Retain); err != nil {
				return fail(err)
			}
		}
		regs[ni][self.PID] = st
		drv.targets[i] = self
		states = append(states, st)
	}
	for i, n := range nodes {
		if err := n.AddProcesses(regs[i]); err != nil {
			return fail(err)
		}
	}

	dn, err := nicsim.NewNode(net, swarmDriverNID, nicsim.Config{Lanes: 1})
	if err != nil {
		return fail(err)
	}
	nodes = append(nodes, dn)
	drv.node = dn
	drv.state = core.NewState(types.ProcessID{NID: swarmDriverNID, PID: 1},
		types.Limits{MaxMEs: 1, MaxMDs: swarmWindow + 1, MaxEQs: 1, MaxACEntries: 2, MaxPtlIndex: 1}, nil, nil)
	states = append(states, drv.state)
	if err := dn.AddProcess(1, drv.state); err != nil {
		return fail(err)
	}
	if drv.eq, err = drv.state.EQAlloc(4 * swarmWindow); err != nil {
		return fail(err)
	}
	for s := 0; s < swarmWindow; s++ {
		slot := &swarmSlot{idx: s, buf: pattern(rng, w.size)}
		if slot.md, err = drv.state.MDBind(core.MD{
			Start: slot.buf, Threshold: types.ThresholdInfinite, EQ: drv.eq, UserPtr: slot,
		}, types.Retain); err != nil {
			return fail(err)
		}
		drv.slots = append(drv.slots, slot)
	}

	reg := metrics.NewRegistry()
	net.RegisterMetrics(reg, metrics.L("fabric", "loopback"))
	for _, n := range nodes {
		n.RegisterMetrics(reg, metrics.L("node", fmt.Sprint(n.NID())))
	}
	return &instance{
		loops: []*loop{{src: drv, window: swarmWindow, payload: w.size}},
		nis:   len(states),
		snapshot: func() counters {
			c := readRegistry(reg)
			for _, st := range states {
				c.addInterface(st.Counters().Snapshot())
			}
			return c
		},
		check: func() error {
			var dropped int64
			for _, st := range states {
				dropped += st.Counters().Dropped()
			}
			for _, n := range nodes {
				dropped += n.Counters().Dropped()
			}
			if dropped != 0 {
				return fmt.Errorf("swarm dropped %d messages", dropped)
			}
			return nil
		},
		close: func() error {
			err := closeAll()
			for _, st := range states {
				st.Close()
			}
			return err
		},
	}, nil
}
