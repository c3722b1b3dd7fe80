package nicsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/rtscts"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
	"repro/internal/wire"
)

const (
	rigBulk    = 100_000 // beyond the 32 KiB eager limit: announced
	rigBits    = types.MatchBits(7)
	rigWinSize = 4 * rigBulk
)

var (
	rigTxID = types.ProcessID{NID: 1, PID: 10}
	rigRxID = types.ProcessID{NID: 2, PID: 20}
)

// rig is an initiator node and a target node on simnet + rtscts, the target
// exposing one persistent window with an event queue — the descriptor
// announced puts are placed into.
type rig struct {
	t        *testing.T
	sim      *simnet.Network
	tx, rx   *Node
	txs, rxs *core.State
	win      []byte
	me, md   types.Handle
	eq       types.Handle // the window's
	txeq     types.Handle // acks
}

func newRig(t *testing.T, fabric simnet.Config, rxCfg Config) *rig {
	t.Helper()
	r := &rig{t: t, sim: simnet.New(fabric), win: make([]byte, rigWinSize)}
	// The fabric loses nothing; keep the retransmit timer clear of host stalls.
	net := rtscts.NewNetwork(r.sim, rtscts.Config{RTO: 200 * time.Millisecond, RTOMin: 200 * time.Millisecond})
	t.Cleanup(func() { net.Close() })
	var err error
	if r.tx, err = NewNode(net, rigTxID.NID, Config{Lanes: 1}); err != nil {
		t.Fatal(err)
	}
	if r.rx, err = NewNode(net, rigRxID.NID, rxCfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.tx.Close(); r.rx.Close() })
	r.txs = core.NewState(rigTxID, types.Limits{}, nil, nil)
	r.rxs = core.NewState(rigRxID, types.Limits{}, nil, nil)
	if err := r.tx.AddProcess(rigTxID.PID, r.txs); err != nil {
		t.Fatal(err)
	}
	if err := r.rx.AddProcess(rigRxID.PID, r.rxs); err != nil {
		t.Fatal(err)
	}
	if r.eq, err = r.rxs.EQAlloc(256); err != nil {
		t.Fatal(err)
	}
	if r.txeq, err = r.txs.EQAlloc(256); err != nil {
		t.Fatal(err)
	}
	if r.me, err = r.rxs.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}, rigBits, 0, types.Retain, types.After); err != nil {
		t.Fatal(err)
	}
	if r.md, err = r.rxs.MDAttach(r.me, r.windowMD(), types.Retain); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) windowMD() core.MD {
	return core.MD{Start: r.win, Threshold: types.ThresholdInfinite, Options: types.MDOpPut | types.MDManageRemote, EQ: r.eq}
}

// put sends data to the window at offset, to the process pid on the target.
func (r *rig) put(data []byte, offset uint64, ack types.AckRequest, pid types.PID) {
	r.t.Helper()
	if err := r.tryPut(data, offset, ack, pid); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) tryPut(data []byte, offset uint64, ack types.AckRequest, pid types.PID) error {
	md, err := r.txs.MDBind(core.MD{Start: data, Threshold: types.ThresholdInfinite, EQ: r.txeq}, types.Retain)
	if err != nil {
		return err
	}
	out, err := r.txs.StartPut(md, ack, types.ProcessID{NID: rigRxID.NID, PID: pid}, 0, 0, rigBits, offset)
	if err != nil {
		return err
	}
	if err := r.tx.Send(out); err != nil {
		return err
	}
	if ack == types.AckReq {
		return nil // the ack names the descriptor
	}
	return r.txs.MDUnlink(md) // the message is encoded: the source is free
}

func (r *rig) rxStats() *rtscts.Stats { return r.rx.ep.(*rtscts.Conn).Stats() }

// landing reports whether a placement is between resolve and commit on the
// window: MDUpdate is refused exactly then, and changes nothing otherwise.
func (r *rig) landing() bool {
	err := r.rxs.MDUpdate(r.md, r.windowMD(), types.InvalidHandle)
	if err != nil && !errors.Is(err, types.ErrMDInUse) {
		r.t.Errorf("MDUpdate = %v", err)
	}
	return err != nil
}

// putEvent is where a put landed in the window, and how much of it.
type putEvent struct{ off, mlen uint64 }

func (r *rig) nextPut() putEvent {
	r.t.Helper()
	e, err := r.rxs.EQPoll(r.eq, 10*time.Second)
	if err != nil {
		r.t.Fatalf("no put event: %v", err)
	}
	if e.Type != types.EventPut {
		r.t.Fatalf("event %v, want PUT", e.Type)
	}
	return putEvent{e.Offset, e.MLength}
}

func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func outstanding() int64 {
	gets, _, puts := bufpool.Usage()
	return gets - puts
}

func fill(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13) ^ salt
	}
	return b
}

// An announced put into a window is placed: the fabric obtains no delivery
// buffer, the bytes, the event and the ack are those of a whole delivery,
// and one interrupt is charged for it, not two.
func TestPlacedPutEndToEnd(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			fabric := simnet.Instant()
			fabric.MTU = 4096
			r := newRig(t, fabric, Config{Lanes: lanes, Model: HostInterrupt})
			data := fill(rigBulk, 1)
			r.put(data, 64, types.AckReq, rigRxID.PID)
			if ev := r.nextPut(); ev.off != 64 || ev.mlen != rigBulk {
				t.Errorf("put event offset %d mlength %d", ev.off, ev.mlen)
			}
			if !bytes.Equal(r.win[64:64+rigBulk], data) {
				t.Error("window does not hold the payload")
			}
			for {
				ev, err := r.txs.EQPoll(r.txeq, 10*time.Second)
				if err != nil {
					t.Fatalf("no ack: %v", err)
				}
				if ev.Type == types.EventAck {
					if ev.MLength != rigBulk {
						t.Errorf("ack mlength %d", ev.MLength)
					}
					break
				}
			}
			st := r.rxStats()
			if st.Placed.Load() != 1 || st.PlacedBytes.Load() != rigBulk {
				t.Errorf("placed %d messages, %d bytes; want 1, %d", st.Placed.Load(), st.PlacedBytes.Load(), rigBulk)
			}
			if got := r.rx.Counters().Snapshot().Interrupts; got != 1 {
				t.Errorf("%d interrupts for one placed message, want 1", got)
			}
			if r.landing() {
				t.Error("the window is still pinned after commit")
			}
		})
	}
}

// §4.1 across the placement path: an eager put, an announced one and another
// eager one from one initiator arrive as three events in that order, however
// many processors and lanes run the two paths.
func TestPlacedPutKeepsPairOrder(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, lanes := range []int{1, 4} {
			t.Run(fmt.Sprintf("procs=%d/lanes=%d", procs, lanes), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				fabric := simnet.Instant()
				fabric.MTU = 4096
				r := newRig(t, fabric, Config{Lanes: lanes})
				small := fill(100, 2)
				bulk := fill(rigBulk, 3)
				const rounds = 20
				for i := 0; i < rounds; i++ {
					r.put(small, 0, types.NoAckReq, rigRxID.PID)
					r.put(bulk, 1000, types.NoAckReq, rigRxID.PID)
					r.put(small, 2*rigBulk, types.NoAckReq, rigRxID.PID)
				}
				for i := 0; i < rounds; i++ {
					for _, want := range []putEvent{{0, 100}, {1000, rigBulk}, {2 * rigBulk, 100}} {
						if ev := r.nextPut(); ev != want {
							t.Fatalf("round %d: event at offset %d (%d bytes), want offset %d (%d bytes)", i, ev.off, ev.mlen, want.off, want.mlen)
						}
					}
				}
				if got := r.rxStats().Placed.Load(); got != rounds {
					t.Errorf("%d messages placed, want %d", got, rounds)
				}
			})
		}
	}
}

// A bulk put to a process that is gone is refused on its header — counted
// once as a bad target, its body never buffered — and the stream behind it
// is not held up.
func TestAnnouncedPutToRemovedProcess(t *testing.T) {
	fabric := simnet.Instant()
	fabric.MTU = 4096
	r := newRig(t, fabric, Config{Lanes: 2})
	gone := core.NewState(types.ProcessID{NID: rigRxID.NID, PID: 21}, types.Limits{}, nil, nil)
	if err := r.rx.AddProcess(21, gone); err != nil {
		t.Fatal(err)
	}
	r.rx.RemoveProcess(21)
	r.put(fill(256<<10, 4), 0, types.NoAckReq, 21)
	r.put([]byte("still here"), 0, types.NoAckReq, rigRxID.PID)
	if ev := r.nextPut(); ev.mlen != 10 || string(r.win[:10]) != "still here" {
		t.Errorf("the eager put behind the refused one: %d bytes, window %q", ev.mlen, r.win[:10])
	}
	st := r.rxStats()
	if st.AnnounceDiscarded.Load() != 1 || st.Placed.Load() != 0 || st.MsgsDelivered.Load() != 1 {
		t.Errorf("discarded %d placed %d delivered %d, want 1 0 1", st.AnnounceDiscarded.Load(), st.Placed.Load(), st.MsgsDelivered.Load())
	}
	if got := r.rx.Counters().Snapshot(); got.Dropped != 1 || got.Drops[types.DropBadTarget] != 1 {
		t.Errorf("node drops %v, want one bad-target", got.Drops)
	}
}

// hostile is a peer that speaks rtscts by hand (docs/PROTOCOL.md §2): raw
// packets onto the fabric, in sequence, saying whatever the test wants.
type hostile struct {
	t   *testing.T
	ep  *simnet.Endpoint
	seq uint64
}

const hostileNID = types.NID(7)

func newHostile(t *testing.T, sim *simnet.Network) *hostile {
	t.Helper()
	ep, err := sim.AttachBurst(hostileNID, func(types.NID, []byte, []byte) {}, func() {})
	if err != nil {
		t.Fatal(err)
	}
	return &hostile{t: t, ep: ep}
}

const (
	pktFirstApp = 1        // first fragment of an application message
	pktFirstRTS = 1 | 1<<2 // first (only) fragment of a request to send
)

func (h *hostile) send(flags uint8, aux uint64, payload []byte) {
	h.t.Helper()
	var hdr [20]byte
	hdr[0], hdr[1] = 1, flags // a sequenced data packet
	binary.BigEndian.PutUint64(hdr[4:], h.seq)
	binary.BigEndian.PutUint64(hdr[12:], aux)
	h.seq++
	// Out of a pooled buffer, like any sender: the link's reference is what
	// keeps the bytes once this one is released.
	buf := bufpool.Get(len(payload))
	defer buf.Release()
	copy(buf.Bytes(), payload)
	if err := h.ep.SendPacket(rigRxID.NID, hdr[:], buf.Bytes(), buf); err != nil {
		h.t.Fatal(err)
	}
}

// announce sends an RTS for a put of n payload bytes into the window,
// claiming total bytes in all.
func (h *hostile) announce(n, total int) []byte {
	hdr := wire.NewPut(types.ProcessID{NID: hostileNID, PID: 1}, rigRxID, 0, 0, rigBits, 0,
		types.Handle{Kind: types.KindMD, Index: 1, Gen: 1}, uint64(n), types.NoAckReq)
	msg := make([]byte, wire.HeaderSize+n)
	hdr.Encode(msg)
	copy(msg[wire.HeaderSize:], fill(n, 5))
	h.send(pktFirstRTS, 8+wire.HeaderSize, append(binary.BigEndian.AppendUint64(nil, uint64(total)), msg[:wire.HeaderSize]...))
	return msg
}

// What the peer says between the announcement and the end of the body is
// its word only. Each way of breaking it is counted exactly once, by the
// reason it has; the window is unpinned afterwards; and a well-behaved
// initiator's next put arrives.
func TestHostileAnnouncementsThroughTheEngine(t *testing.T) {
	const n = 50_000
	for _, tc := range []struct {
		name     string
		run      func(r *rig, h *hostile)
		reason   types.DropReason
		nodeDrop bool // counted by the node (no process was resolved), not the process
		closes   bool // the run closed the target node
	}{
		{name: "total disagrees with the header", reason: types.DropBadTarget, nodeDrop: true,
			run: func(r *rig, h *hostile) {
				h.announce(n, wire.HeaderSize+n/2)
				await(r.t, "the refusal", func() bool { return r.rxStats().AnnounceDiscarded.Load() == 1 })
			}},
		{name: "different length after the RTS", reason: types.DropAborted,
			run: func(r *rig, h *hostile) {
				h.announce(n, wire.HeaderSize+n)
				await(r.t, "the placement", r.landing)
				small := wire.NewPut(types.ProcessID{NID: hostileNID, PID: 1}, rigRxID, 0, 0, rigBits, 0,
					types.Handle{Kind: types.KindMD, Index: 1, Gen: 1}, 5, types.NoAckReq)
				h.send(pktFirstApp, wire.HeaderSize+5, wire.EncodeMessage(&small, []byte("other")))
				if ev := r.nextPut(); ev.mlen != 5 {
					r.t.Errorf("the message that broke the rendezvous: %d bytes, want 5", ev.mlen)
				}
			}},
		{name: "second RTS before the body", reason: types.DropAborted,
			run: func(r *rig, h *hostile) {
				h.announce(n, wire.HeaderSize+n)
				await(r.t, "the placement", r.landing)
				msg := h.announce(n, wire.HeaderSize+n)
				await(r.t, "the abort", func() bool { return r.rxs.Counters().Dropped() == 1 })
				await(r.t, "the second placement", r.landing)
				for off := 0; off < len(msg); off += 4000 {
					flags, aux := uint8(0), uint64(0)
					if off == 0 {
						flags, aux = pktFirstApp, uint64(len(msg))
					}
					h.send(flags, aux, msg[off:min(off+4000, len(msg))])
				}
				if ev := r.nextPut(); ev.mlen != n || !bytes.Equal(r.win[:n], msg[wire.HeaderSize:]) {
					r.t.Errorf("the second announcement's message: %d bytes, intact %v", ev.mlen, bytes.Equal(r.win[:n], msg[wire.HeaderSize:]))
				}
			}},
		{name: "body overrun", reason: types.DropAborted,
			run: func(r *rig, h *hostile) {
				msg := h.announce(n, wire.HeaderSize+n)
				await(r.t, "the placement", r.landing)
				h.send(pktFirstApp, uint64(len(msg)), msg[:4000])
				h.send(0, 0, make([]byte, 4000))
				h.send(0, 0, make([]byte, 4076)) // as much again as the message has left, and more
				for i := 0; i < 12; i++ {
					h.send(0, 0, make([]byte, 4076))
				}
			}},
		{name: "peer gone mid-body, then Close", reason: types.DropAborted, closes: true,
			run: func(r *rig, h *hostile) {
				msg := h.announce(n, wire.HeaderSize+n)
				await(r.t, "the placement", r.landing)
				acks := r.rxStats().AcksSent.Load()
				h.send(pktFirstApp, uint64(len(msg)), msg[:4000])
				// The burst that carried the fragment ends with its ack.
				await(r.t, "the first fragment", func() bool { return r.rxStats().AcksSent.Load() > acks })
				r.rx.Close()
			}},
	} {
		for _, lanes := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/lanes=%d", tc.name, lanes), func(t *testing.T) {
				start := outstanding()
				fabric := simnet.Instant()
				fabric.MTU = 4096
				r := newRig(t, fabric, Config{Lanes: lanes})
				tc.run(r, newHostile(t, r.sim))
				counters := r.rxs.Counters()
				if tc.nodeDrop {
					counters = r.rx.Counters()
				}
				await(t, "the drop", func() bool { return counters.Dropped() > 0 })
				if !tc.closes {
					r.put([]byte("after"), 8, types.NoAckReq, rigRxID.PID)
					if ev := r.nextPut(); ev.off != 8 || ev.mlen != 5 {
						t.Errorf("the put after the hostile sequence: offset %d, %d bytes", ev.off, ev.mlen)
					}
				}
				if got := r.rxs.Counters().Dropped() + r.rx.Counters().Dropped(); got != 1 || counters.DroppedFor(tc.reason) != 1 {
					t.Errorf("%d drops in all, %d for %v; want 1 and 1", got, counters.DroppedFor(tc.reason), tc.reason)
				}
				if err := r.rxs.MEUnlink(r.me); err != nil {
					t.Errorf("the window is still pinned: MEUnlink = %v", err)
				}
				r.tx.Close()
				r.rx.Close()
				r.sim.Close()
				await(t, "pooled buffers to come back", func() bool { return outstanding() == start })
			})
		}
	}
}

// Teardown under fire: bulk puts keep landing while the application unlinks
// and updates the window, removes the process, or closes the endpoint or the
// node. Nothing may panic, race or wedge; a refusal is ErrMDInUse; and when
// the dust settles nothing is pinned and every pooled buffer is back.
func TestTeardownRacesLandingFragments(t *testing.T) {
	// Slow enough that a body is on the wire for a couple of milliseconds.
	fabric := simnet.Config{MTU: 4096, Bandwidth: 40e6}
	for _, tc := range []struct {
		name string
		do   func(r *rig)
	}{
		{"MDUnlink", func(r *rig) {
			if err := r.rxs.MDUnlink(r.md); !errors.Is(err, types.ErrMDInUse) {
				r.t.Errorf("MDUnlink during a landing = %v, want ErrMDInUse", err)
			}
		}},
		{"MEUnlink", func(r *rig) {
			if err := r.rxs.MEUnlink(r.me); !errors.Is(err, types.ErrMDInUse) {
				r.t.Errorf("MEUnlink during a landing = %v, want ErrMDInUse", err)
			}
		}},
		{"RemoveProcess", func(r *rig) { r.rx.RemoveProcess(rigRxID.PID) }},
		{"Conn.Close", func(r *rig) { r.rx.ep.Close() }},
		{"Node.Close", func(r *rig) { r.rx.Close() }},
	} {
		for _, lanes := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/lanes=%d", tc.name, lanes), func(t *testing.T) {
				start := outstanding()
				r := newRig(t, fabric, Config{Lanes: lanes})
				var wg sync.WaitGroup
				stop := make(chan struct{})
				wg.Add(1)
				go func() { // the fire: bulk puts one behind the other until told to stop
					defer wg.Done()
					for i := 0; ; i++ {
						if err := r.tryPut(fill(rigBulk, byte(i)), uint64(i%4)*rigBulk, types.NoAckReq, rigRxID.PID); err != nil {
							t.Error(err)
							return
						}
						for landed := false; !landed; {
							select {
							case <-stop:
								return
							default:
							}
							_, err := r.rxs.EQPoll(r.eq, time.Millisecond)
							landed = err == nil
						}
					}
				}()
				// The action runs while a body lands, with one placement
				// committed before it and more to come behind.
				await(t, "a landing behind a commit", func() bool { return r.rxStats().Placed.Load() >= 1 && r.landing() })
				tc.do(r)
				close(stop)
				wg.Wait()
				r.tx.Close()
				r.rx.Close()
				r.sim.Close()
				if err := r.rxs.MEUnlink(r.me); err != nil {
					t.Errorf("after teardown the window is still pinned: MEUnlink = %v", err)
				}
				await(t, "pooled buffers to come back", func() bool { return outstanding() == start })
				snap := r.rxs.Counters().Snapshot()
				if snap.Dropped != snap.Drops[types.DropAborted] || snap.Dropped > 1 {
					t.Errorf("process drops %v, want at most one transfer-aborted", snap.Drops)
				}
			})
		}
	}
}

// TestPlacedPutAllocs holds the whole placed path — announcement, resolve,
// answer, sixty-five fragments written through to the window, completion,
// commit, ack — to zero allocations per message once pools are warm.
func TestPlacedPutAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	fabric := simnet.Instant()
	fabric.MTU = 4096
	r := newRig(t, fabric, Config{Lanes: 2})
	const size = 256 << 10
	md, err := r.txs.MDBind(core.MD{Start: fill(size, 9), Threshold: types.ThresholdInfinite, EQ: r.txeq}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		out, err := r.txs.StartPut(md, types.AckReq, rigRxID, 0, 0, rigBits, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.tx.Send(out); err != nil {
			t.Fatal(err)
		}
		for acked := false; !acked; {
			ev, err := r.txs.EQGet(r.txeq)
			switch {
			case err == nil:
				acked = ev.Type == types.EventAck
			case errors.Is(err, types.ErrEQEmpty):
				runtime.Gosched()
			default:
				t.Fatal(err)
			}
		}
		for { // drain the target's put event
			if _, err := r.rxs.EQGet(r.eq); err != nil {
				break
			}
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	placed := r.rxStats().Placed.Load()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a placed 256 KiB put and its ack allocate %v times, want 0", n)
	}
	if got := r.rxStats().Placed.Load() - placed; got < 100 {
		t.Errorf("%d of the measured puts were placed", got)
	}
}

// processBurst leaves no view of a carrier in its scratch: once a message is
// processed and its buffer released, nothing the node keeps may reach the
// bytes (a lane used to pin its last carrier — 512 KiB after one bulk put).
func TestReleasedCarrierIsCollectable(t *testing.T) {
	fabric := simnet.Instant()
	r := newRig(t, fabric, Config{Lanes: 1})
	collected := make(chan struct{})
	func() {
		h := wire.NewPut(rigTxID, rigRxID, 0, 0, rigBits, 0, types.Handle{Kind: types.KindMD, Index: 1, Gen: 1}, 1000, types.NoAckReq)
		msg := wire.EncodeMessage(&h, fill(1000, 6)) // a plain allocation: no pool keeps it alive
		runtime.SetFinalizer(&msg[0], func(*byte) { close(collected) })
		r.rx.onBatch([]transport.Delivery{{Src: rigTxID.NID, Msg: msg}})
	}()
	r.nextPut()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the carrier of a processed message is still reachable")
}
