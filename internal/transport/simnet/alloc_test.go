package simnet

import (
	"runtime"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/types"
)

// TestLinkAllocs pins the packet path at zero allocations: SendPacket with an
// owner → queue slot → handler → release, once the queue's two backings are
// warm. What it guards is the escape a packet by value costs: an inflight
// whose inline header is sliced into the handler call (an indirect call) from
// a local copy moves to the heap, one object per packet — so packets are
// delivered from the batch slot, and a duplicate from the link's own field.
func TestLinkAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		copies int
	}{
		{"plain", Config{MTU: 4096}, 1},
		{"duplicated", Config{MTU: 4096, DupRate: 1, Seed: 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(tc.cfg)
			defer n.Close()
			got := make(chan int, tc.copies)
			a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Attach(2, func(_ types.NID, hdr, payload []byte) { got <- len(hdr) + len(payload) }); err != nil {
				t.Fatal(err)
			}
			hdr := make([]byte, 20)
			start := outstanding()
			cycle := func() {
				buf := bufpool.Get(4000)
				err := a.SendPacket(2, hdr, buf.Bytes(), buf)
				buf.Release() // the link's references are the only ones left
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.copies; i++ {
					if size := <-got; size != 4020 {
						t.Fatalf("delivered %d bytes, want 4020", size)
					}
				}
				for outstanding() != start { // the last delivery releases after its handler returns
					runtime.Gosched()
				}
			}
			for i := 0; i < 100; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("a packet through the link allocates %v times, want 0", allocs)
			}
		})
	}
}
