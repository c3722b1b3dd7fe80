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

func newPingPongSide(t *testing.T, ni *NI, peer ProcessID) pingPongSide {
	t.Helper()
	eq, _ := armRecv(t, ni, 0, 9, 64, MDOpPut|MDManageRemote)
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

// TestRoundTripAllocs holds a whole small-message round trip — Put, the peer
// blocked in EQPoll woken by the delivery, its Put back, and our own blocking
// EQPoll — to zero allocations over the do-nothing fabric and over zero-wire
// simnet+rtscts, and a CTPoll that has to block likewise: a completion wait
// costs no timer, no channel, no closure.
func TestRoundTripAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	rel := rtscts.DefaultConfig()
	rel.RTO, rel.RTOMin = 200*time.Millisecond, 200*time.Millisecond // a stalled test box must not look like loss
	for name, fab := range map[string]Fabric{
		"loopback": Loopback(),
		"simnet":   SimFabric(simnet.Config{MTU: 4096}, rel),
	} {
		t.Run(name, func(t *testing.T) {
			m := NewMachine(fab)
			defer m.Close()
			a, err := m.NIInit(1, 1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.NIInit(2, 1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			ping, pong := newPingPongSide(t, a, b.ID()), newPingPongSide(t, b, a.ID())
			go func() { // the peer: parked in EQPoll until the ping lands
				for pong.wait(t) {
					pong.put(t)
				}
			}()
			roundTrip := func() {
				ping.put(t)
				ping.wait(t)
			}
			for i := 0; i < 500; i++ {
				roundTrip() // first contact, pools, scratch
			}
			if got := testing.AllocsPerRun(500, roundTrip); got != 0 {
				t.Errorf("a round trip allocates %.2f objects, want 0", got)
			}
		})
	}

	t.Run("ctpoll", func(t *testing.T) {
		m := NewMachine(Loopback())
		defer m.Close()
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
		blockThenSatisfied := func() {
			threshold++
			want <- threshold
			if v, err := ni.CTPoll(ct, threshold, 10*time.Second); err != nil || v.Success != threshold {
				t.Fatalf("CTPoll(%d) = %+v, %v", threshold, v, err)
			}
		}
		for i := 0; i < 100; i++ {
			blockThenSatisfied()
		}
		if got := testing.AllocsPerRun(500, blockThenSatisfied); got != 0 {
			t.Errorf("a CTPoll that blocks and is satisfied allocates %.2f objects, want 0", got)
		}
	})
}
