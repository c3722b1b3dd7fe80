package rtscts

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// TestSteadyStateAllocs pins the owned-buffer byte path: once the pool and
// the per-peer state are warm, a whole send → fragment → fabric →
// reassemble → deliver → ack cycle allocates nothing inside rtscts and
// simnet — eager or rendezvous, one fragment or sixty-five. Two senders
// feed the one receiver at once, so the cycle also holds the receiver's
// ack-due list (two sources marked, listed and flushed by two link
// goroutines) and the links' batch swaps at zero. The handler below is the
// test's own and allocates nothing either.
func TestSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, tc := range []struct {
		name string
		size int
		mtu  int
	}{
		{"eager-64B", 64, simnet.Instant().MTU},
		{"rendezvous-256KiB", 256 << 10, simnet.Instant().MTU},
		{"rendezvous-256KiB-mtu4096", 256 << 10, 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fabric := simnet.Instant()
			fabric.MTU = tc.mtu
			net := simnet.New(fabric)
			defer net.Close()
			// The fabric loses nothing, so the retransmit timer is not what is
			// measured — and at its default 1 ms floor it fires whenever the
			// box stalls the test that long: a spurious Go-Back-N resend of a
			// 64-packet window takes 64 packet buffers no warm-up ever needed
			// (seen once in ~20 runs at GOMAXPROCS >= 2 beside other packages'
			// tests: 157 mallocs, 64 retransmits). Park it clear of stalls.
			cfg := Config{RTO: 200 * time.Millisecond, RTOMin: 200 * time.Millisecond}
			delivered := make(chan int, 2)
			b, err := attachSim(net, 2, cfg, func(_ types.NID, msg []byte) { delivered <- len(msg) })
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			var senders [2]*Conn
			for i, nid := range []types.NID{1, 3} {
				if senders[i], err = attachSim(net, nid, cfg, func(types.NID, []byte) {}); err != nil {
					t.Fatal(err)
				}
				defer senders[i].Close()
			}

			msg := make([]byte, tc.size)
			cycle := func() {
				for _, a := range senders {
					if err := a.Send(2, msg); err != nil {
						t.Fatal(err)
					}
				}
				for range senders {
					if n := <-delivered; n != tc.size {
						t.Fatalf("delivered %d bytes, want %d", n, tc.size)
					}
				}
				// The cycle ends when the last acks have retired the messages.
				for _, a := range senders {
					for st, _ := a.Peer(2); st.InFlight != 0; st, _ = a.Peer(2) {
						runtime.Gosched()
					}
				}
			}
			for i := 0; i < 200; i++ { // warm pools, rings, batch backings, per-peer state
				cycle()
			}
			if n := testing.AllocsPerRun(100, cycle); n != 0 {
				t.Fatalf("steady-state cycle allocates %v times, want 0", n)
			}
			if tc.size > DefaultConfig().EagerMax && senders[0].Stats().RTSSent.Load() == 0 {
				t.Fatal("large message did not use rendezvous")
			}
		})
	}
}
