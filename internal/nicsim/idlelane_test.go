package nicsim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// ackFabric is a fabric with nothing behind it: the test feeds the node's
// handler itself, and every message the engine sends (the acks of the puts
// it is fed) is recorded in the order SendBuf saw it and dropped. While
// armed, SendBuf parks its caller — which is how a lane worker is held with
// its burst half done.
type ackFabric struct {
	handler transport.BatchHandler

	mu     sync.Mutex
	hold   chan struct{} // non-nil while armed; closed by release
	parked chan struct{} // one token per SendBuf that parked
	acks   []wire.Header
}

func (f *ackFabric) AttachBatch(_ types.NID, h transport.BatchHandler) (transport.Endpoint, error) {
	f.handler = h
	return f, nil
}
func (f *ackFabric) Attach(nid types.NID, h transport.Handler) (transport.Endpoint, error) {
	return f.AttachBatch(nid, transport.Borrow(h))
}
func (f *ackFabric) Send(dst types.NID, msg []byte) error { return transport.SendCopy(f, dst, msg) }
func (f *ackFabric) LocalNID() types.NID                  { return 100 }
func (f *ackFabric) Close() error                         { return nil }

func (f *ackFabric) SendBuf(_ types.NID, buf, body *bufpool.Buf) error {
	defer buf.Release()
	defer body.Release()
	h, _, err := wire.DecodeMessage(buf.Bytes())
	if err != nil {
		return err
	}
	f.mu.Lock()
	hold := f.hold
	f.mu.Unlock()
	if hold != nil {
		f.parked <- struct{}{}
		select {
		case <-hold:
		case <-time.After(3 * time.Second):
			// Whoever would release is parked here itself: the dispatcher
			// ran a burst that should have queued. Let it out to say so.
		}
	}
	f.mu.Lock()
	f.acks = append(f.acks, h)
	f.mu.Unlock()
	return nil
}

func (f *ackFabric) arm() {
	f.mu.Lock()
	f.hold = make(chan struct{})
	f.mu.Unlock()
}

func (f *ackFabric) release() {
	f.mu.Lock()
	close(f.hold)
	f.hold = nil
	f.mu.Unlock()
}

func (f *ackFabric) acked() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.acks)
}

// TestIdleLaneRunsInlineInOrder walks one flow through every transition of
// the idle-lane rule — dispatched to a worker that is then held mid-burst,
// queued behind it while more batches arrive, drained, run inline once the
// lane is idle, dispatched again — and requires its messages to complete in
// the order they were sent. A second flow shares the first and the last batch,
// so those go to two lane workers, which must both be inside the engine at
// once: parallel delivery of independent flows is not what the rule gives up.
func TestIdleLaneRunsInlineInOrder(t *testing.T) {
	for _, lanes := range []int{2, 8} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			fab := &ackFabric{parked: make(chan struct{}, 16)}
			n, err := NewNode(fab, 100, Config{Lanes: lanes})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			target := types.ProcessID{NID: 100, PID: 20}
			s := newState(t, target)
			if err := n.AddProcess(target.PID, s); err != nil {
				t.Fatal(err)
			}
			eq, err := s.EQAlloc(64)
			if err != nil {
				t.Fatal(err)
			}
			me, err := s.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}, 0, ^types.MatchBits(0), types.Retain, types.After)
			if err != nil {
				t.Fatal(err)
			}
			sink := core.MD{Start: make([]byte, 16), Threshold: types.ThresholdInfinite, Options: types.MDOpPut | types.MDManageRemote, EQ: eq}
			if _, err := s.MDAttach(me, sink, types.Retain); err != nil {
				t.Fatal(err)
			}

			// Two initiators whose flows hash onto different lanes.
			const nidA = types.NID(1)
			laneA := laneIndex(nidA, target.PID, lanes)
			nidB := nidA + 1
			for laneIndex(nidB, target.PID, lanes) == laneA {
				nidB++
			}
			senders := map[types.NID]*core.State{}
			mds := map[types.NID]types.Handle{}
			for _, nid := range []types.NID{nidA, nidB} {
				st := newState(t, types.ProcessID{NID: nid, PID: 1})
				md, err := st.MDBind(core.MD{Start: []byte("x"), Threshold: types.ThresholdInfinite}, types.Retain)
				if err != nil {
					t.Fatal(err)
				}
				senders[nid], mds[nid] = st, md
			}
			sentA := 0 // flow A's puts carry their send order in MatchBits
			put := func(nid types.NID) transport.Delivery {
				bits := types.MatchBits(1 << 32) // flow B: out of A's sequence space
				if nid == nidA {
					bits = types.MatchBits(sentA)
					sentA++
				}
				out, err := senders[nid].StartPut(mds[nid], types.AckReq, target, 0, 0, bits, 0)
				if err != nil {
					t.Fatal(err)
				}
				buf := out.TakeBuf()
				return transport.Delivery{Src: nid, Msg: buf.Bytes(), Buf: buf}
			}
			feed := func(nids ...types.NID) {
				batch := make([]transport.Delivery, len(nids))
				for i, nid := range nids {
					batch[i] = put(nid)
				}
				fab.handler(batch)
			}
			await := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
				}
			}
			bothWorkersParked := func() {
				t.Helper()
				for i := 0; i < 2; i++ {
					select {
					case <-fab.parked:
					case <-time.After(10 * time.Second):
						t.Fatalf("%d of 2 lane workers inside the engine: a two-flow batch no longer runs on two lanes", i)
					}
				}
			}
			idle := func() bool { return n.lanes[laneA].pending.Load() == 0 }

			rec := trace.Enable()
			defer trace.Disable()
			bursts0 := n.burstSizes.Count()

			// Dispatched: a two-flow batch goes to two workers, both held.
			fab.arm()
			feed(nidA, nidB)
			bothWorkersParked()
			// Queued: single-flow batches behind a busy lane must wait their
			// turn there, not overtake on this goroutine.
			feed(nidA)
			feed(nidA, nidA)
			if got := fab.acked(); got != 0 {
				t.Fatalf("%d messages completed while their lane's worker was held", got)
			}
			fab.release()
			await("the held lane to drain", func() bool { return fab.acked() == 5 && idle() })
			// Inline: the lane is idle, so the batch is finished by the time
			// the handler returns.
			feed(nidA)
			feed(nidA, nidA)
			if got := fab.acked(); got != 8 {
				t.Fatalf("%d of 8 messages complete after two batches on an idle lane: they were not run inline", got)
			}
			// And dispatched again.
			fab.arm()
			feed(nidB, nidA)
			bothWorkersParked()
			feed(nidA)
			fab.release()
			await("everything to complete", func() bool { return fab.acked() == 11 && idle() })

			next := types.MatchBits(0)
			for _, h := range fab.acks {
				if h.Target.NID != nidA {
					continue
				}
				if h.MatchBits != next {
					t.Fatalf("flow acked out of order: got message %d, want %d", h.MatchBits, next)
				}
				next++
			}
			next = 0
			for i := 0; i < 11; i++ {
				ev, err := s.EQGet(eq)
				if err != nil {
					t.Fatalf("event %d/11: %v", i, err)
				}
				if ev.Initiator.NID != nidA {
					continue
				}
				if ev.MatchBits != next {
					t.Fatalf("flow delivered out of order: got message %d, want %d", ev.MatchBits, next)
				}
				next++
			}
			if int(next) != sentA {
				t.Errorf("%d of %d messages of the flow delivered", next, sentA)
			}

			// Observability does not depend on which goroutine ran a burst.
			if got := n.burstSizes.Count() - bursts0; got != 9 {
				t.Errorf("burst histogram saw %d bursts, want 9 (7 batches, two of them two-flow)", got)
			}
			dispatched := 0
			for _, e := range rec.Snapshot() {
				if e.Stage == trace.StageLaneDispatch {
					dispatched++
				}
			}
			if dispatched != 11 {
				t.Errorf("%d lane-dispatch trace records for 11 messages", dispatched)
			}
		})
	}
}
