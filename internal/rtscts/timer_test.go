package rtscts

// The retransmission timer is armed only while a packet is unacked: a stream
// whose window has drained costs no timer and no goroutine, and the deadline
// follows the RTO down as RTT samples lower it.

import (
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// Once the window drains the timer lapses, and an idle stream neither re-arms
// it nor resends or backs off, however many timeouts' worth of time pass. The
// stream's one sample takes its RTO from the 20 ms seed to the 2 ms floor, so
// ten idle timeouts are 20 ms.
func TestIdleStreamDisarmsTheTimer(t *testing.T) {
	a, _, _, sb, _ := pairOn(t, simnet.Instant(), Config{RTO: 20 * time.Millisecond, RTOMin: 2 * time.Millisecond})
	if err := a.Send(2, []byte("once")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return sb.count() == 1 })
	s, _ := a.senders.Get(2)
	idle := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.base == s.nextSeq && s.armed.IsZero()
	}
	// The deadline the send armed lapses at most one seed RTO after the ack.
	waitFor(t, 2*time.Second, idle)
	if s.timer.Stop() {
		t.Fatal("the timer is pending over an idle stream")
	}
	st, _ := a.Peer(2)
	time.Sleep(10 * st.RTO) // ten idle timeouts
	if !idle() {
		t.Fatal("the timer re-armed over an idle stream")
	}
	if n := a.Stats().Retransmits.Load(); n != 0 {
		t.Fatalf("an idle stream resent %d packets", n)
	}
	if n := a.Stats().Backoff.Count(); n != 0 {
		t.Fatalf("an idle stream backed off %d times", n)
	}
}

// A stream seeded at a 50 ms RTO arms its first deadline 50 ms out; the RTT
// sample of the first ack takes the RTO to its floor, and the deadline comes
// forward with it: the window times out one floor RTO after the last send,
// not at the seed's deadline.
func TestDeadlineFollowsFallingRTO(t *testing.T) {
	const seed, floor = 50 * time.Millisecond, 25 * time.Millisecond
	c, s := blackholeConn(t, Config{Window: 8, RTO: seed, RTOMin: floor})
	for i := 0; i < 4; i++ {
		if err := c.Send(99, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.onAck(1, false) // a sample of microseconds
	s.mu.Lock()
	rto, lastSend, armed := s.rto, s.lastSend, s.armed
	s.mu.Unlock()
	if rto != floor {
		t.Fatalf("RTO = %v after a sample of microseconds, want the %v floor", rto, floor)
	}
	if armed.IsZero() || armed.After(lastSend.Add(rto)) {
		t.Fatalf("timer armed %v after the last send, want no later than the RTO %v", armed.Sub(lastSend), rto)
	}
}

// A timeout whose first ack an original transmission moved on was spurious —
// the ack was on its way before the resend — so the window it halved comes
// back, and the duplicate acks its resend draws fire no fast retransmit: the
// timeout costs one window of resends. When the resend itself moves the ack
// on, the timeout was a loss, and the window stays halved.
func TestSpuriousTimeoutIsUndone(t *testing.T) {
	for _, resent := range []bool{false, true} {
		c, s := blackholeConn(t, quietCfg(8))
		send := func() {
			for i := 0; i < 8; i++ {
				if err := c.Send(99, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		send()
		s.mu.Lock()
		s.lastSend = s.lastSend.Add(-time.Hour) // the window has stalled for good
		s.mu.Unlock()
		s.expire()
		if st, _ := c.Peer(99); st.Window != 4 || c.Stats().Retransmits.Load() != 8 {
			t.Fatalf("timeout: window %d, %d resent; want 4 and the whole window (8)", st.Window, c.Stats().Retransmits.Load())
		}
		s.onAck(2, resent)
		want := map[bool]int{false: 8, true: 4}[resent]
		if st, _ := c.Peer(99); st.Window != want {
			t.Fatalf("resent=%v: window %d after the first ack, want %d", resent, st.Window, want)
		}
		if resent {
			continue
		}
		send()
		for i := 0; i < 3; i++ {
			s.onAck(2, false) // the resend's duplicates, answered
		}
		if n, f := c.Stats().Retransmits.Load(), c.Stats().FastRetransmits.Load(); n != 8 || f != 0 {
			t.Fatalf("after a spurious timeout: %d resent, %d fast retransmits; want one window (8) and none", n, f)
		}
	}
}

// Every ack echoes whether the first packet it acknowledges anew was a
// retransmission, which is how a sender tells a spurious timeout. It is the
// first, not the last: a resend followed in the same burst by packets sent
// after it answers for the resend. A duplicate's answer repeats the echo of
// the ack it repeats.
func TestAckEchoesTheResendFlag(t *testing.T) {
	net := newFakeBurstNet()
	acks := net.tap(1)
	rc, err := Attach(net, 2, quietCfg(8), transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	feed := net.node(2)
	type pkt struct {
		seq   uint64
		flags uint8
	}
	for _, step := range []struct {
		burst []pkt
		echo  uint8
	}{
		{[]pkt{{0, 0}}, 0},
		{[]pkt{{1, flagResent}, {2, 0}}, flagResent},
		{[]pkt{{3, 0}, {4, flagResent}}, 0},
		{[]pkt{{1, flagResent}}, 0}, // a duplicate
	} {
		for _, p := range step.burst {
			data := dataPkt(p.seq, 1, []byte{0})
			data[1] |= p.flags
			feed.h(1, data, nil)
		}
		feed.flush()
		var got []uint8
		for len(acks) > 0 {
			p := <-acks
			got = append(got, p.data[1])
		}
		if len(got) != 1 || got[0] != step.echo {
			t.Fatalf("burst %v: ack flags %v, want one ack echoing %#x", step.burst, got, step.echo)
		}
	}
}
