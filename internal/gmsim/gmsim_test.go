package gmsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/transport/loopback"
	"repro/internal/types"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

func newWorld(t *testing.T, n int, cfg Config) *World {
	t.Helper()
	net := loopback.New()
	t.Cleanup(func() { net.Close() })
	w, err := NewWorld(net, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestPortParksWithoutProgress(t *testing.T) {
	// The defining non-property: messages arrive but nothing is
	// processed until the application polls.
	net := loopback.New()
	defer net.Close()
	a, err := Open(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("parked")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("message never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	src, msg, ok := b.Receive()
	if !ok || src != 1 || string(msg) != "parked" {
		t.Errorf("Receive = %v/%d/%q", ok, src, msg)
	}
	if _, _, ok := b.Receive(); ok {
		t.Error("empty inbox returned a message")
	}
}

func TestEagerSendRecv(t *testing.T) {
	w := newWorld(t, 2, Config{})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send([]byte("gm eager"), 1, 3)
		}
		buf := make([]byte, 16)
		st, err := c.Recv(buf, 0, 3)
		if err != nil {
			return err
		}
		if st.Count != 8 || string(buf[:8]) != "gm eager" {
			return fmt.Errorf("got %+v %q", st, buf[:8])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvous(t *testing.T) {
	w := newWorld(t, 2, Config{EagerLimit: 1024})
	payload := make([]byte, 50*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(payload, 1, 1)
		}
		buf := make([]byte, len(payload))
		st, err := c.Recv(buf, 0, 1)
		if err != nil {
			return err
		}
		if st.Count != len(payload) || !bytes.Equal(buf, payload) {
			return fmt.Errorf("rendezvous corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The Figure 6 property at unit scale: a rendezvous send makes NO
// progress while the receiver is not in the library.
func TestNoProgressWithoutLibraryCalls(t *testing.T) {
	net := loopback.New()
	defer net.Close()
	w, err := NewWorld(net, 2, Config{EagerLimit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 50*1024)

	c0, c1 := w.Comm(0), w.Comm(1)
	buf := make([]byte, len(payload))
	rreq, err := c1.Irecv(buf, 0, 1) // pre-posted, like Figure 5
	if err != nil {
		t.Fatal(err)
	}
	sreq, err := c0.Isend(payload, 0+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = sreq
	// Sender drives its side fully; receiver makes NO library calls.
	for i := 0; i < 50; i++ {
		c0.Progress()
		time.Sleep(time.Millisecond)
	}
	if rreq.Done() {
		t.Fatal("rendezvous completed without receiver library calls")
	}
	// One receiver progress pass releases the CTS; a few more complete it.
	deadline := time.Now().Add(5 * time.Second)
	for !rreq.Done() {
		c1.Progress()
		c0.Progress()
		if time.Now().After(deadline) {
			t.Fatal("rendezvous did not complete")
		}
		time.Sleep(time.Millisecond)
	}
	if !bytes.Equal(buf, payload) {
		t.Error("payload corrupted")
	}
}

func TestUnexpectedEager(t *testing.T) {
	w := newWorld(t, 2, Config{})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send([]byte("early"), 1, 9)
		}
		time.Sleep(50 * time.Millisecond)
		buf := make([]byte, 8)
		st, err := c.Recv(buf, 0, 9)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "early" {
			return fmt.Errorf("got %q", buf[:st.Count])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The unexpected eager path must have cost a copy.
	if w.Comm(1).Port().CopiedBytes.Load() == 0 {
		t.Error("no copy counted for unexpected eager receive")
	}
}

func TestUnexpectedRendezvous(t *testing.T) {
	w := newWorld(t, 2, Config{EagerLimit: 64})
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(payload, 1, 2)
		}
		time.Sleep(50 * time.Millisecond) // RTS lands unexpected
		buf := make([]byte, len(payload))
		st, err := c.Recv(buf, 0, 2)
		if err != nil {
			return err
		}
		if st.Count != len(payload) || !bytes.Equal(buf, payload) {
			return fmt.Errorf("unexpected rendezvous corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOrderingSameEnvelope(t *testing.T) {
	w := newWorld(t, 2, Config{})
	const count = 50
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < count; i++ {
				if err := c.Send([]byte{byte(i)}, 1, 1); err != nil {
					return err
				}
			}
			return nil
		}
		time.Sleep(20 * time.Millisecond)
		buf := make([]byte, 1)
		for i := 0; i < count; i++ {
			if _, err := c.Recv(buf, 0, 1); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d = %d", i, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := newWorld(t, 3, Config{})
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send([]byte{byte(c.Rank())}, 0, 20+c.Rank())
		}
		buf := make([]byte, 1)
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			st, err := c.Recv(buf, AnySource, AnyTag)
			if err != nil {
				return err
			}
			if st.Tag != 20+st.Source {
				return fmt.Errorf("status %+v", st)
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("seen %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierGM(t *testing.T) {
	w := newWorld(t, 4, Config{})
	err := w.Run(func(c *Comm) error { return c.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanks(t *testing.T) {
	w := newWorld(t, 2, Config{})
	if _, err := w.Comm(0).Isend(nil, 7, 0); err == nil {
		t.Error("bad dst accepted")
	}
	if _, err := w.Comm(0).Irecv(nil, 7, 0); err == nil {
		t.Error("bad src accepted")
	}
}

func TestPortCloseStopsParking(t *testing.T) {
	net := loopback.New()
	defer net.Close()
	a, err := Open(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	_ = a.Send(2, []byte("x")) // may error or vanish; must not park
	time.Sleep(20 * time.Millisecond)
	if b.Pending() != 0 {
		t.Error("closed port parked a message")
	}
	_ = types.NID(0)
}
