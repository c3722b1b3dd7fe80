package portals

import (
	"errors"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/rtscts"
	"repro/internal/transport/simnet"
)

// pingPongSide is one end of a 64-byte ping-pong: a sink with an event queue
// and a persistent send descriptor that raises no events of its own.
type pingPongSide struct {
	ni   *NI
	eq   Handle
	md   Handle
	peer ProcessID
}

// newPingPongSide arms the sink with recv on top of MDOpPut|MDManageRemote.
func newPingPongSide(t *testing.T, ni *NI, peer ProcessID, recv MDOptions) pingPongSide {
	t.Helper()
	eq, _ := armRecv(t, ni, 0, 9, 64, MDOpPut|MDManageRemote|recv)
	md, err := ni.MDBind(MD{Start: make([]byte, 64), Threshold: ThresholdInfinite}, Retain)
	if err != nil {
		t.Fatal(err)
	}
	return pingPongSide{ni, eq, md, peer}
}

func (s pingPongSide) put(t *testing.T) {
	if err := s.ni.Put(s.md, NoAckReq, s.peer, 0, 0, 9, 0); err != nil {
		t.Error(err)
	}
}

func (s pingPongSide) wait(t *testing.T) bool {
	if _, err := s.ni.EQPoll(s.eq, 10*time.Second); err != nil {
		if !errors.Is(err, ErrClosed) {
			t.Error(err)
		}
		return false
	}
	return true
}

// warmRuns is how often a round runs before it is measured (first contact,
// pools, scratch); measuredRuns how often AllocsPerRun then runs it.
const warmRuns, measuredRuns = 500, 500

// zeroAllocs warms round up and then holds it to zero allocations.
func zeroAllocs(t *testing.T, what string, round func()) {
	t.Helper()
	for i := 0; i < warmRuns; i++ {
		round()
	}
	if got := testing.AllocsPerRun(measuredRuns, round); got != 0 {
		t.Errorf("%s allocates %.2f objects, want 0", what, got)
	}
}

// TestRoundTripAllocs is the zero-allocation contract of the delivery path,
// held end to end through the public API. Each row is a round trip whose
// initiator blocks in a completion wait that the delivery wakes:
//
//   - loopback, simnet: Put, the peer blocked in EQPoll woken by the
//     delivery, its Put back, and our own blocking EQPoll, over the
//     do-nothing fabric and over zero-wire simnet+rtscts;
//   - accumulate: the loopback ping-pong into MDAccumulate sinks, so every
//     delivery combines float64s into the region;
//   - get: a Get and the EventReply it completes with — the request, the
//     peer's reply built on its lane, and the reply's reserved event slot;
//   - triggered: the peer's sink counts puts into a counter with a put back
//     armed at every threshold, so each ping fires one TriggeredPut from the
//     delivery lane with no host code on the peer;
//   - ctpoll: a CTPoll that has to block and is then satisfied.
//
// A completion wait costs no timer, no channel, no closure.
func TestRoundTripAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	rel := rtscts.DefaultConfig()
	rel.RTO, rel.RTOMin = 200*time.Millisecond, 200*time.Millisecond // a stalled test box must not look like loss
	for _, row := range []struct {
		name string
		fab  Fabric
		recv MDOptions
	}{
		{"loopback", Loopback(), 0},
		{"simnet", SimFabric(simnet.Config{MTU: 4096}, rel), 0},
		{"accumulate", Loopback(), MDAccumulate},
	} {
		t.Run(row.name, func(t *testing.T) {
			a, b := twoNIs(t, row.fab)
			ping, pong := newPingPongSide(t, a, b.ID(), row.recv), newPingPongSide(t, b, a.ID(), row.recv)
			go func() { // the peer: parked in EQPoll until the ping lands
				for pong.wait(t) {
					pong.put(t)
				}
			}()
			zeroAllocs(t, "a round trip", func() {
				ping.put(t)
				ping.wait(t)
			})
		})
	}

	t.Run("get", func(t *testing.T) {
		a, b := twoNIs(t, Loopback())
		me, err := b.MEAttach(0, AnyProcess, 9, 0, Retain, After)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.MDAttach(me, MD{Start: make([]byte, 64), Threshold: ThresholdInfinite, Options: MDOpGet | MDManageRemote}, Retain); err != nil {
			t.Fatal(err)
		}
		eq, err := a.EQAlloc(32)
		if err != nil {
			t.Fatal(err)
		}
		md, err := a.MDBind(MD{Start: make([]byte, 64), Threshold: ThresholdInfinite, EQ: eq}, Retain)
		if err != nil {
			t.Fatal(err)
		}
		zeroAllocs(t, "a get round trip", func() {
			if err := a.Get(md, b.ID(), 0, 0, 9, 0); err != nil {
				t.Fatal(err)
			}
			if ev, err := a.EQPoll(eq, 10*time.Second); err != nil || ev.Type != EventReply {
				t.Fatalf("EQPoll = %v, %v; want an EventReply", ev.Type, err)
			}
		})
	})

	t.Run("triggered", func(t *testing.T) {
		a, b := twoNIs(t, Loopback())
		ping := newPingPongSide(t, a, b.ID(), 0)
		ct, err := b.CTAlloc()
		if err != nil {
			t.Fatal(err)
		}
		me, err := b.MEAttach(0, AnyProcess, 9, 0, Retain, After)
		if err != nil {
			t.Fatal(err)
		}
		sink := MD{Start: make([]byte, 64), Threshold: ThresholdInfinite, Options: MDOpPut | MDManageRemote | MDCTPut, CT: ct}
		if _, err := b.MDAttach(me, sink, Retain); err != nil {
			t.Fatal(err)
		}
		back, err := b.MDBind(MD{Start: make([]byte, 64), Threshold: ThresholdInfinite}, Retain)
		if err != nil {
			t.Fatal(err)
		}
		// One armed put per ping: AllocsPerRun runs its round once more
		// than asked, and a margin keeps the last ping answered.
		for th := uint64(1); th <= warmRuns+measuredRuns+200; th++ {
			if err := b.TriggeredPut(back, NoAckReq, a.ID(), 0, 0, 9, 0, ct, th); err != nil {
				t.Fatal(err)
			}
		}
		zeroAllocs(t, "a triggered round trip", func() {
			ping.put(t)
			ping.wait(t)
		})
	})

	t.Run("ctpoll", func(t *testing.T) {
		m := newMachine(t, Loopback())
		ni, err := m.NIInit(1, 1, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ni.CTAlloc()
		if err != nil {
			t.Fatal(err)
		}
		want := make(chan uint64)
		defer close(want)
		go func() { // satisfies each wait only after the waiter has asked for it
			for range want {
				if err := ni.CTInc(ct, CTValue{Success: 1}); err != nil {
					t.Error(err)
				}
			}
		}()
		var threshold uint64
		zeroAllocs(t, "a CTPoll that blocks and is satisfied", func() {
			threshold++
			want <- threshold
			if v, err := ni.CTPoll(ct, threshold, 10*time.Second); err != nil || v.Success != threshold {
				t.Fatalf("CTPoll(%d) = %+v, %v", threshold, v, err)
			}
		})
	})
}
