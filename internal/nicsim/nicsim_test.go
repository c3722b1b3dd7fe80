package nicsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/core"
	"repro/internal/transport/loopback"
	"repro/internal/types"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

// newState builds a State for the test and checks its teardown when the test
// ends (core.State.CheckTeardown): no RCU pin open, no arena entry its tables
// no longer reach. The node delivering into it must have stopped by then —
// closed by a defer, or by a cleanup registered after this one.
func newState(t *testing.T, id types.ProcessID) *core.State {
	t.Helper()
	s := core.NewState(id, types.Limits{}, nil, nil)
	t.Cleanup(func() {
		if err := s.CheckTeardown(); err != nil {
			t.Error(err)
		}
	})
	return s
}

func twoNodes(t *testing.T, cfg Config) (*Node, *Node, *core.State, *core.State) {
	t.Helper()
	net := loopback.New()
	t.Cleanup(func() { net.Close() })
	n1, err := NewNode(net, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewNode(net, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newState(t, types.ProcessID{NID: 1, PID: 10})
	s2 := newState(t, types.ProcessID{NID: 2, PID: 20})
	if err := n1.AddProcess(10, s1); err != nil {
		t.Fatal(err)
	}
	if err := n2.AddProcess(20, s2); err != nil {
		t.Fatal(err)
	}
	// Registered last, so the nodes stop before the states' teardown checks.
	t.Cleanup(func() { n1.Close(); n2.Close() })
	return n1, n2, s1, s2
}

// postRecv arms one ME+MD+EQ for puts on portal 0.
func postRecv(t *testing.T, s *core.State, buf []byte, bits types.MatchBits) types.Handle {
	t.Helper()
	eq, err := s.EQAlloc(16)
	if err != nil {
		t.Fatal(err)
	}
	me, err := s.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}, bits, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MDAttach(me, core.MD{Start: buf, Threshold: types.ThresholdInfinite, Options: types.MDOpPut, EQ: eq}, types.Retain); err != nil {
		t.Fatal(err)
	}
	return eq
}

func TestEndToEndPut(t *testing.T) {
	n1, _, s1, s2 := twoNodes(t, Config{})
	buf := make([]byte, 16)
	eq := postRecv(t, s2, buf, 7)

	src, err := s1.MDBind(core.MD{Start: []byte("payload"), Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.LendPut(src, types.NoAckReq, types.ProcessID{NID: 2, PID: 20}, 0, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Send(out); err != nil {
		t.Fatal(err)
	}
	ev, err := s2.EQPoll(eq, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != types.EventPut || string(buf[:7]) != "payload" {
		t.Errorf("event %v, buf %q", ev.Type, buf[:7])
	}
}

// The defining property: delivery happens with NO application goroutine
// touching the target state between arming and the event check.
func TestApplicationBypassDelivery(t *testing.T) {
	n1, _, s1, s2 := twoNodes(t, Config{})
	buf := make([]byte, 8)
	eq := postRecv(t, s2, buf, 1)

	src, err := s1.MDBind(core.MD{Start: []byte("bypass!!"), Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.LendPut(src, types.NoAckReq, types.ProcessID{NID: 2, PID: 20}, 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Send(out); err != nil {
		t.Fatal(err)
	}
	// Wait WITHOUT any call that drives progress: EQPending is a pure
	// query. The engine must land the data and post the event on its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, err := s2.EQPending(eq)
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("data did not arrive without application involvement")
		}
		time.Sleep(time.Millisecond)
	}
	if string(buf) != "bypass!!" {
		t.Errorf("buf = %q", buf)
	}
}

func TestAckFlowsBack(t *testing.T) {
	n1, _, s1, s2 := twoNodes(t, Config{})
	buf := make([]byte, 8)
	postRecv(t, s2, buf, 3)

	aeq, err := s1.EQAlloc(8)
	if err != nil {
		t.Fatal(err)
	}
	src, err := s1.MDBind(core.MD{Start: []byte("ackme"), Threshold: types.ThresholdInfinite, EQ: aeq}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.LendPut(src, types.AckReq, types.ProcessID{NID: 2, PID: 20}, 0, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Send(out); err != nil {
		t.Fatal(err)
	}
	sawSend, sawAck := false, false
	for i := 0; i < 2; i++ {
		ev, err := s1.EQPoll(aeq, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case types.EventSend:
			sawSend = true
		case types.EventAck:
			sawAck = true
			if ev.MLength != 5 {
				t.Errorf("ack mlength = %d", ev.MLength)
			}
		}
	}
	if !sawSend || !sawAck {
		t.Errorf("send/ack = %v/%v", sawSend, sawAck)
	}
}

func TestGetThroughNodes(t *testing.T) {
	n1, _, s1, s2 := twoNodes(t, Config{})
	me, err := s2.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}, 9, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.MDAttach(me, core.MD{Start: []byte("remote-data"), Threshold: types.ThresholdInfinite, Options: types.MDOpGet | types.MDManageRemote | types.MDTruncate}, types.Retain); err != nil {
		t.Fatal(err)
	}
	aeq, err := s1.EQAlloc(8)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 6)
	md, err := s1.MDBind(core.MD{Start: dst, Threshold: types.ThresholdInfinite, EQ: aeq}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.StartGet(md, types.ProcessID{NID: 2, PID: 20}, 0, 0, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Send(out); err != nil {
		t.Fatal(err)
	}
	ev, err := s1.EQPoll(aeq, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != types.EventReply || string(dst) != "data\x00\x00"[:6] {
		t.Errorf("event %v, data %q", ev.Type, dst)
	}
}

func TestBadTargetPIDDropped(t *testing.T) {
	n1, n2, s1, _ := twoNodes(t, Config{})
	src, err := s1.MDBind(core.MD{Start: []byte("x"), Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.LendPut(src, types.NoAckReq, types.ProcessID{NID: 2, PID: 999}, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Send(out); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n2.Counters().DroppedFor(types.DropBadTarget) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bad-target drop not counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWrongNIDDropped(t *testing.T) {
	// A message addressed to NID 2 delivered to a node with NID 1 (e.g.
	// misrouted) is dropped as bad-target.
	n1, n2, s1, _ := twoNodes(t, Config{})
	_ = n2
	src, err := s1.MDBind(core.MD{Start: []byte("x"), Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.LendPut(src, types.NoAckReq, types.ProcessID{NID: 1, PID: 20}, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// PID 20 lives on node 2, not node 1: node 1 must drop it.
	if err := n1.Send(out); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n1.Counters().DroppedFor(types.DropBadTarget) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("misrouted message not dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUndecodableTrafficDropped(t *testing.T) {
	net := loopback.New()
	defer net.Close()
	n1, err := NewNode(net, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	raw, err := net.Attach(99, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Send(1, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n1.Counters().DroppedFor(types.DropBadTarget) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("garbage not dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInterruptModelCharges(t *testing.T) {
	n1, n2, s1, s2 := twoNodes(t, Config{Model: HostInterrupt})
	_ = n2
	buf := make([]byte, 8)
	eq := postRecv(t, s2, buf, 1)
	src, err := s1.MDBind(core.MD{Start: []byte("i"), Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.LendPut(src, types.NoAckReq, types.ProcessID{NID: 2, PID: 20}, 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Send(out); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.EQPoll(eq, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if s2.Counters().Snapshot().Interrupts != 1 {
		t.Errorf("interrupts = %d, want 1", s2.Counters().Snapshot().Interrupts)
	}
}

func TestNICOffloadNoInterrupts(t *testing.T) {
	n1, _, s1, s2 := twoNodes(t, Config{Model: NICOffload})
	buf := make([]byte, 8)
	eq := postRecv(t, s2, buf, 1)
	src, err := s1.MDBind(core.MD{Start: []byte("i"), Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.LendPut(src, types.NoAckReq, types.ProcessID{NID: 2, PID: 20}, 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Send(out); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.EQPoll(eq, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if s2.Counters().Snapshot().Interrupts != 0 {
		t.Errorf("interrupts = %d, want 0", s2.Counters().Snapshot().Interrupts)
	}
}

func TestDuplicatePIDRejected(t *testing.T) {
	net := loopback.New()
	defer net.Close()
	n, err := NewNode(net, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	s := newState(t, types.ProcessID{NID: 1, PID: 5})
	if err := n.AddProcess(5, s); err != nil {
		t.Fatal(err)
	}
	if err := n.AddProcess(5, s); err == nil {
		t.Error("duplicate PID accepted")
	}
}

func TestRemoveProcess(t *testing.T) {
	n1, n2, s1, s2 := twoNodes(t, Config{})
	buf := make([]byte, 8)
	postRecv(t, s2, buf, 1)
	n2.RemoveProcess(20)
	src, err := s1.MDBind(core.MD{Start: []byte("x"), Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.LendPut(src, types.NoAckReq, types.ProcessID{NID: 2, PID: 20}, 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Send(out); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n2.Counters().DroppedFor(types.DropBadTarget) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("message to removed process not dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNodeCloseFailsOperations(t *testing.T) {
	n1, _, _, _ := twoNodes(t, Config{})
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}
	s := newState(t, types.ProcessID{NID: 1, PID: 77})
	if err := n1.AddProcess(77, s); !errors.Is(err, types.ErrClosed) {
		t.Errorf("AddProcess after close = %v", err)
	}
	if err := n1.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}
