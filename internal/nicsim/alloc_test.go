package nicsim

import (
	"runtime"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/transport/loopback"
	"repro/internal/types"
)

// TestDispatchAllocs holds the receive half of the engine — admit, group by
// lane, hand off, process on the workers, release — to zero allocations per
// batch once pools and scratch are warm, on four lanes and inline on one.
// The batch spreads over eight target processes so that, with four lanes,
// several groups are in flight per batch.
func TestDispatchAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, lanes := range []int{4, 1} {
		net := loopback.New()
		defer net.Close()
		n, err := NewNode(net, 2, Config{Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()

		const procs, perProc = 8, 4
		sender := core.NewState(types.ProcessID{NID: 1, PID: 10}, types.Limits{}, nil, nil)
		src, err := sender.MDBind(core.MD{Start: []byte("payload"), Threshold: types.ThresholdInfinite}, types.Retain)
		if err != nil {
			t.Fatal(err)
		}
		var wire [procs][]byte // one encoded put per target process
		var landed [procs][]byte
		for p := range wire {
			pid := types.PID(20 + p)
			s := core.NewState(types.ProcessID{NID: 2, PID: pid}, types.Limits{}, nil, nil)
			me, err := s.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}, 0, 0, types.Retain, types.After)
			if err != nil {
				t.Fatal(err)
			}
			// Remote-managed offset and no event queue: the descriptor
			// takes any number of puts.
			landed[p] = make([]byte, 16)
			md := core.MD{Start: landed[p], Threshold: types.ThresholdInfinite, Options: types.MDOpPut | types.MDManageRemote}
			if _, err := s.MDAttach(me, md, types.Retain); err != nil {
				t.Fatal(err)
			}
			if err := n.AddProcess(pid, s); err != nil {
				t.Fatal(err)
			}
			out, err := sender.StartPut(src, types.NoAckReq, types.ProcessID{NID: 2, PID: pid}, 0, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			wire[p] = append([]byte(nil), out.Msg...)
			out.Recycle()
		}

		batch := make([]transport.Delivery, 0, procs*perProc)
		gets0, _, puts0 := bufpool.Usage()
		oneBatch := func() {
			batch = batch[:0]
			for i := 0; i < procs*perProc; i++ {
				b := bufpool.Get(len(wire[i%procs]))
				copy(b.Bytes(), wire[i%procs])
				batch = append(batch, transport.Delivery{Src: 1, Msg: b.Bytes(), Buf: b})
			}
			n.onBatch(batch)
			// The batch is done with when every buffer is back in the pool.
			for g, _, p := bufpool.Usage(); g-p != gets0-puts0; g, _, p = bufpool.Usage() {
				runtime.Gosched()
			}
		}
		for i := 0; i < 200; i++ {
			oneBatch() // warm the buffer, burst and scratch pools on every P
		}
		if got := testing.AllocsPerRun(200, oneBatch); got != 0 {
			t.Errorf("lanes=%d: a batch of %d allocates %.2f objects, want 0", lanes, procs*perProc, got)
		}
		for p := range landed {
			if string(landed[p][:7]) != "payload" {
				t.Errorf("lanes=%d: nothing was delivered to process %d", lanes, p)
			}
		}
	}
}
