package portals

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/rtscts"
	"repro/internal/transport/simnet"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

// newMachine builds a machine over fab that is torn down when the test ends,
// after which the State of every interface it brought up is checked
// (Machine.CheckTeardown): no RCU pin open, no put body still lent, no arena
// entry its tables no longer reach.
func newMachine(t *testing.T, fab Fabric) *Machine {
	t.Helper()
	m := NewMachine(fab)
	t.Cleanup(func() {
		if err := m.CheckTeardown(); err != nil {
			t.Error(err)
		}
	})
	return m
}

// fabrics lists every fabric the integration tests must pass on. The
// simulated fabric uses instant timing so the suite stays fast; timing
// behaviour is covered by the benchmarks.
func fabrics() map[string]Fabric {
	return map[string]Fabric{
		"loopback": Loopback(),
		"simnet":   SimFabric(simnet.Instant(), rtscts.Config{}),
		"tcp":      TCP(),
	}
}

// armRecv posts one ME+MD+EQ for puts at (ptl, bits).
func armRecv(t *testing.T, ni *NI, ptl PtlIndex, bits MatchBits, size int, opts MDOptions) (Handle, []byte) {
	t.Helper()
	eq, err := ni.EQAlloc(32)
	if err != nil {
		t.Fatal(err)
	}
	me, err := ni.MEAttach(ptl, AnyProcess, bits, 0, Retain, After)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := ni.MDAttach(me, MD{Start: buf, Threshold: ThresholdInfinite, Options: opts, EQ: eq}, Retain); err != nil {
		t.Fatal(err)
	}
	return eq, buf
}

func TestPutAcrossFabrics(t *testing.T) {
	for name, fab := range fabrics() {
		t.Run(name, func(t *testing.T) {
			m := newMachine(t, fab)
			rx, err := m.NIInit(1, 1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			tx, err := m.NIInit(2, 1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			eq, buf := armRecv(t, rx, 0, 42, 64, MDOpPut)

			md, err := tx.MDBind(MD{Start: []byte("across fabrics"), Threshold: 1}, Unlink)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Put(md, NoAckReq, rx.ID(), 0, 0, 42, 0); err != nil {
				t.Fatal(err)
			}
			ev, err := rx.EQPoll(eq, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Type != EventPut || !bytes.Equal(buf[:14], []byte("across fabrics")) {
				t.Errorf("event %v, buf %q", ev.Type, buf[:14])
			}
			if ev.Initiator != tx.ID() {
				t.Errorf("initiator = %v, want %v", ev.Initiator, tx.ID())
			}
		})
	}
}

func TestGetAcrossFabrics(t *testing.T) {
	for name, fab := range fabrics() {
		t.Run(name, func(t *testing.T) {
			m := newMachine(t, fab)
			server, err := m.NIInit(1, 1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			client, err := m.NIInit(2, 1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			me, err := server.MEAttach(5, AnyProcess, 7, 0, Retain, After)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := server.MDAttach(me, MD{
				Start: []byte("the quick brown fox"), Threshold: ThresholdInfinite,
				Options: MDOpGet | MDManageRemote | MDTruncate,
			}, Retain); err != nil {
				t.Fatal(err)
			}

			eq, err := client.EQAlloc(8)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, 5)
			md, err := client.MDBind(MD{Start: dst, Threshold: ThresholdInfinite, EQ: eq}, Retain)
			if err != nil {
				t.Fatal(err)
			}
			if err := client.Get(md, server.ID(), 5, 0, 7, 4); err != nil {
				t.Fatal(err)
			}
			ev, err := client.EQPoll(eq, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Type != EventReply || string(dst) != "quick" {
				t.Errorf("event %v, dst %q", ev.Type, dst)
			}
		})
	}
}

func TestPutWithAckOverSimnet(t *testing.T) {
	m := newMachine(t, SimFabric(simnet.Instant(), rtscts.Config{}))
	rx, err := m.NIInit(1, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.NIInit(2, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	armRecv(t, rx, 0, 1, 64, MDOpPut)

	eq, err := tx.EQAlloc(8)
	if err != nil {
		t.Fatal(err)
	}
	md, err := tx.MDBind(MD{Start: []byte("acked"), Threshold: ThresholdInfinite, EQ: eq}, Retain)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(md, AckReq, rx.ID(), 0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	sawSend, sawAck := false, false
	for i := 0; i < 2; i++ {
		ev, err := tx.EQPoll(eq, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case EventSend:
			sawSend = true
		case EventAck:
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

// End-to-end Portals over a LOSSY fabric: the RTS/CTS layer must make the
// unreliable network invisible to the API.
func TestPutOverLossyFabric(t *testing.T) {
	sim := simnet.Config{MTU: 1024, LossRate: 0.1, DupRate: 0.05, ReorderRate: 0.05, Seed: 23}
	m := newMachine(t, SimFabric(sim, rtscts.Config{RTO: 15 * time.Millisecond, EagerMax: 2048}))
	rx, err := m.NIInit(1, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.NIInit(2, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	eq, buf := armRecv(t, rx, 0, 3, 200*1024, MDOpPut)

	payload := make([]byte, 150*1024) // forces rendezvous + many fragments
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	md, err := tx.MDBind(MD{Start: payload, Threshold: 1}, Unlink)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(md, NoAckReq, rx.ID(), 0, 0, 3, 0); err != nil {
		t.Fatal(err)
	}
	ev, err := rx.EQPoll(eq, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MLength != uint64(len(payload)) || !bytes.Equal(buf[:len(payload)], payload) {
		t.Error("payload corrupted over lossy fabric")
	}
}

func TestManyMessagesStayOrdered(t *testing.T) {
	m := newMachine(t, Loopback())
	rx, err := m.NIInit(1, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.NIInit(2, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Locally-managed offset MD acts as an append log: ordering shows in
	// the buffer layout. The EQ is sized for the full burst so no events
	// overwrite (circular-overrun behaviour is covered elsewhere).
	eq, err := rx.EQAlloc(512)
	if err != nil {
		t.Fatal(err)
	}
	me, err := rx.MEAttach(0, AnyProcess, 9, 0, Retain, After)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4000)
	if _, err := rx.MDAttach(me, MD{Start: buf, Threshold: ThresholdInfinite, Options: MDOpPut, EQ: eq}, Retain); err != nil {
		t.Fatal(err)
	}
	const count = 500
	for i := 0; i < count; i++ {
		md, err := tx.MDBind(MD{Start: []byte(fmt.Sprintf("%08d", i)), Threshold: 1}, Unlink)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(md, NoAckReq, rx.ID(), 0, 0, 9, 0); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for seen < count {
		ev, err := rx.EQPoll(eq, 10*time.Second)
		if err != nil && !errors.Is(err, ErrEQDropped) {
			t.Fatal(err)
		}
		_ = ev
		seen++
	}
	for i := 0; i < 4000/8; i++ {
		if want := fmt.Sprintf("%08d", i); string(buf[i*8:i*8+8]) != want {
			t.Fatalf("slot %d = %q, want %q (ordering violated)", i, buf[i*8:i*8+8], want)
		}
	}
}

func TestACEntryEndToEnd(t *testing.T) {
	m := newMachine(t, Loopback())
	rx, err := m.NIInit(1, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.NIInit(2, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	eq, _ := armRecv(t, rx, 0, 1, 64, MDOpPut)

	// Entry 5 admits only nid 99 — tx will be rejected.
	if err := rx.ACEntry(5, ProcessID{NID: 99, PID: 1}, PtlIndexAny); err != nil {
		t.Fatal(err)
	}
	md, err := tx.MDBind(MD{Start: []byte("denied"), Threshold: ThresholdInfinite}, Retain)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(md, NoAckReq, rx.ID(), 0, 5, 1, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rx.Status().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ACL rejection not counted")
		}
		time.Sleep(time.Millisecond)
	}
	if p, _ := rx.EQPending(eq); p != 0 {
		t.Error("denied put delivered")
	}
	// Entry 0 (application wildcard) admits it.
	if err := tx.Put(md, NoAckReq, rx.ID(), 0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.EQPoll(eq, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestNICloseDropsSubsequentTraffic(t *testing.T) {
	m := newMachine(t, Loopback())
	rx, err := m.NIInit(1, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.NIInit(2, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	armRecv(t, rx, 0, 1, 64, MDOpPut)
	if err := rx.Close(); err != nil {
		t.Fatal(err)
	}
	md, err := tx.MDBind(MD{Start: []byte("late"), Threshold: 1}, Unlink)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(md, NoAckReq, rx.ID(), 0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.nodeDrops(1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("traffic to closed NI not dropped")
		}
		time.Sleep(time.Millisecond)
	}
	// Operations on the closed NI fail.
	if err := tx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(md, NoAckReq, rx.ID(), 0, 0, 1, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close = %v", err)
	}
}

func TestLaunchJob(t *testing.T) {
	m := newMachine(t, Loopback())
	nis, err := m.LaunchJob(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(nis) != 4 {
		t.Fatalf("launched %d", len(nis))
	}
	for rank, ni := range nis {
		want := ProcessID{NID: NID(rank + 1), PID: 1}
		if ni.ID() != want {
			t.Errorf("rank %d id = %v, want %v", rank, ni.ID(), want)
		}
	}
	// All-to-one: every rank puts to rank 0.
	eq, _ := armRecv(t, nis[0], 0, 0xF00D, 4096, MDOpPut)
	for rank := 1; rank < 4; rank++ {
		md, err := nis[rank].MDBind(MD{Start: []byte{byte(rank)}, Threshold: 1}, Unlink)
		if err != nil {
			t.Fatal(err)
		}
		if err := nis[rank].Put(md, NoAckReq, nis[0].ID(), 0, 0, 0xF00D, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := nis[0].EQPoll(eq, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultipleProcessesPerNode(t *testing.T) {
	m := newMachine(t, Loopback())
	p1, err := m.NIInit(1, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.NIInit(1, 2, Limits{}) // same node, different PID
	if err != nil {
		t.Fatal(err)
	}
	eq1, buf1 := armRecv(t, p1, 0, 1, 16, MDOpPut)
	eq2, buf2 := armRecv(t, p2, 0, 1, 16, MDOpPut)

	tx, err := m.NIInit(2, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []*NI{p1, p2} {
		md, err := tx.MDBind(MD{Start: []byte("to " + target.ID().String()), Threshold: 1}, Unlink)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(md, NoAckReq, target.ID(), 0, 0, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p1.EQPoll(eq1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.EQPoll(eq2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if string(buf1[:8]) != "to 1:1\x00\x00"[:8] || string(buf2[:6]) != "to 1:2" {
		t.Errorf("PID routing mixed up: %q / %q", buf1[:6], buf2[:6])
	}
}

func TestStatusCounters(t *testing.T) {
	m := newMachine(t, Loopback())
	rx, err := m.NIInit(1, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.NIInit(2, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	eq, _ := armRecv(t, rx, 0, 1, 64, MDOpPut)
	md, err := tx.MDBind(MD{Start: []byte("counted"), Threshold: 1}, Unlink)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(md, NoAckReq, rx.ID(), 0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.EQPoll(eq, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if s := tx.Status(); s.SendMsgs != 1 || s.SendBytes != 7 {
		t.Errorf("tx status: %+v", s)
	}
	if s := rx.Status(); s.RecvMsgs != 1 || s.RecvBytes != 7 {
		t.Errorf("rx status: %+v", s)
	}
}

func TestLimitsGranted(t *testing.T) {
	m := newMachine(t, Loopback())
	ni, err := m.NIInit(1, 1, Limits{MaxMEs: 10, MaxEQs: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := ni.Limits()
	if l.MaxMEs != 10 || l.MaxEQs != 2 {
		t.Errorf("granted limits %+v", l)
	}
	if l.MaxMDs == 0 || l.MaxPtlIndex == 0 {
		t.Error("unspecified limits not defaulted")
	}
}

func TestDuplicateNIInitSamePIDFails(t *testing.T) {
	m := newMachine(t, Loopback())
	if _, err := m.NIInit(1, 1, Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.NIInit(1, 1, Limits{}); err == nil {
		t.Error("duplicate (nid,pid) accepted")
	}
}

func TestMachineCloseIdempotent(t *testing.T) {
	m := newMachine(t, Loopback())
	if _, err := m.NIInit(1, 1, Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.NIInit(2, 1, Limits{}); !errors.Is(err, ErrClosed) {
		t.Errorf("NIInit after close = %v", err)
	}
}

func TestFabricNames(t *testing.T) {
	if Loopback().Name() != "loopback" || TCP().Name() != "tcp" {
		t.Error("fabric names")
	}
	if Myrinet().Name() != "simnet" || GigE().Name() != "simnet" {
		t.Error("sim fabric names")
	}
}
