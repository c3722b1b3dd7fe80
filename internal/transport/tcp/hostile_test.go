package tcp

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/bufpool/pooltest"
	"repro/internal/transport"
	"repro/internal/types"
)

// dialRaw opens a socket to nid's listener, bypassing the endpoint code: a
// peer that speaks whatever it likes.
func dialRaw(t *testing.T, n *Network, nid types.NID) net.Conn {
	t.Helper()
	addr, ok := n.lookup(nid)
	if !ok {
		t.Fatalf("nid %d has no address", nid)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// expectHangup waits for the far side to close c.
func expectHangup(t *testing.T, c net.Conn) {
	t.Helper()
	if err := c.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("hostile connection not closed: read returned %v", err)
	}
}

// TestHostileFraming feeds an endpoint a bad hello and an oversize length
// prefix from raw sockets. Each must be counted and cost the sender its
// connection — before any pooled buffer is acquired for it — while a
// well-behaved peer's connection carries on.
func TestHostileFraming(t *testing.T) {
	gets0, _, puts0 := bufpool.Usage()
	n := New()
	defer n.Close()
	var s sink
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	good, err := n.Attach(1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Send(2, []byte("before")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.count() == 1 })

	gets, _, _ := bufpool.Usage()
	c := dialRaw(t, n, 2)
	if _, err := c.Write([]byte("GET / HT")); err != nil {
		t.Fatal(err)
	}
	expectHangup(t, c)
	if got := n.Stats().BadFrames.Load(); got != 1 {
		t.Errorf("BadFrames = %d after a bad hello, want 1", got)
	}

	c = dialRaw(t, n, 2)
	if err := writeHello(c, 7); err != nil {
		t.Fatal(err)
	}
	var frame [12]byte
	binary.BigEndian.PutUint32(frame[0:], 4) // one honest frame first
	copy(frame[4:], "okay")
	binary.BigEndian.PutUint32(frame[8:], maxFrame+1)
	if _, err := c.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	expectHangup(t, c)
	if got := n.Stats().BadFrames.Load(); got != 2 {
		t.Errorf("BadFrames = %d after an oversize length prefix, want 2", got)
	}
	waitFor(t, func() bool { return s.count() == 2 })
	if after, _, _ := bufpool.Usage(); after != gets+1 {
		t.Errorf("hostile frames acquired %d pooled buffers, want 1 (the honest frame)", after-gets)
	}

	if err := good.Send(2, []byte("after")); err != nil {
		t.Fatalf("well-behaved peer cut off: %v", err)
	}
	waitFor(t, func() bool { return s.count() == 3 })
	if got := string(s.msgs[2]); got != "after" || s.srcs[2] != 1 {
		t.Errorf("got %q from %d", got, s.srcs[2])
	}
	if err := n.Close(); err != nil {
		t.Error(err)
	}
	if g, _, p := bufpool.Usage(); g-p != gets0-puts0 {
		t.Errorf("pooled buffers outstanding: %d", (g-p)-(gets0-puts0))
	}
}

// TestTruncatedFrameReleases cuts a frame off mid-body: the pooled buffer
// the endpoint took for the frame comes back when its read fails, and
// nothing is delivered.
func TestTruncatedFrameReleases(t *testing.T) {
	n := New()
	defer n.Close()
	var s sink
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	held := pooltest.Baseline(t)
	gets, _, _ := bufpool.Usage()
	c := dialRaw(t, n, 2)
	if err := writeHello(c, 7); err != nil {
		t.Fatal(err)
	}
	var frame [8]byte
	binary.BigEndian.PutUint32(frame[0:], 64) // a 64-byte body, of which 4 come
	copy(frame[4:], "part")
	if _, err := c.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { g, _, _ := bufpool.Usage(); return g == gets+1 })
	c.Close()
	waitFor(t, func() bool { return held() == 0 })
	if got := s.count(); got != 0 {
		t.Errorf("%d messages delivered from a truncated frame, want 0", got)
	}
}

// TestRoundTripAllocs holds the steady-state tcp path — SendBuf, frame
// write, read into a pooled buffer, hand-off, and the same again in the
// other direction — to zero allocations per round trip. One way the message
// is a head and a lent body, written in one writev from where they lie.
func TestRoundTripAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	n := New()
	defer n.Close()
	back := make(chan struct{}, 1)
	a, err := n.AttachBatch(1, func(batch []transport.Delivery) {
		for i := range batch {
			batch[i].Release()
			back <- struct{}{}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var b transport.Endpoint
	b, err = n.AttachBatch(2, func(batch []transport.Delivery) {
		for i := range batch {
			// The delivered buffer is ours: send it straight back.
			if err := b.SendBuf(batch[i].Src, batch[i].Buf, nil); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	body, returned := make([]byte, 48), 0
	var loan bufpool.Buf // back from each write before the next round trip lends it again
	back2 := func() { returned++ }
	roundTrip := func() {
		if err := a.SendBuf(2, bufpool.Get(16), loan.Lend(body, nil, back2)); err != nil {
			t.Fatal(err)
		}
		<-back
	}
	for i := 0; i < 100; i++ {
		roundTrip() // dial both directions, grow the queues, warm the pool
	}
	if got := testing.AllocsPerRun(500, roundTrip); got != 0 {
		t.Errorf("tcp round trip allocates %.2f objects, want 0", got)
	}
	if returned != 100+501 {
		t.Errorf("%d bodies returned by the write, want %d", returned, 100+501)
	}
}
