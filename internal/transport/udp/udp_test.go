package udp

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/bufpool/pooltest"
	"repro/internal/transport"
	"repro/internal/types"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

// attach attaches nid to n and closes the endpoint with the test, after the
// test's deferred Network.Close: the Conn, not the Network, holds its
// unacknowledged sends.
func attach(t *testing.T, n *Network, nid types.NID, h func(types.NID, []byte)) (transport.Endpoint, error) {
	ep, err := n.Attach(nid, h)
	if err == nil {
		t.Cleanup(func() { ep.Close() })
	}
	return ep, err
}

// collect is a handler that copies and queues every delivered message.
type collect struct {
	mu   sync.Mutex
	msgs [][]byte
	srcs []types.NID
}

func (c *collect) handler(src types.NID, msg []byte) {
	m := make([]byte, len(msg))
	copy(m, msg)
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.srcs = append(c.srcs, src)
	c.mu.Unlock()
}

func (c *collect) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collect) waitFor(t *testing.T, n int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for c.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d/%d messages delivered", c.count(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSmallMessageOverRealSockets(t *testing.T) {
	n := New()
	defer n.Close()
	var rx collect
	if _, err := attach(t, n, 2, rx.handler); err != nil {
		t.Fatal(err)
	}
	ep, err := attach(t, n, 1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("hello over a real datagram socket")
	if err := ep.Send(2, want); err != nil {
		t.Fatal(err)
	}
	rx.waitFor(t, 1, 10*time.Second)
	if !bytes.Equal(rx.msgs[0], want) || rx.srcs[0] != 1 {
		t.Fatalf("got %q from %d", rx.msgs[0], rx.srcs[0])
	}
}

func TestOrderingManyMessages(t *testing.T) {
	n := New()
	defer n.Close()
	var rx collect
	if _, err := attach(t, n, 2, rx.handler); err != nil {
		t.Fatal(err)
	}
	ep, err := attach(t, n, 1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	const count = 500
	for i := 0; i < count; i++ {
		if err := ep.Send(2, []byte(fmt.Sprintf("msg-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rx.waitFor(t, count, 30*time.Second)
	for i := 0; i < count; i++ {
		if want := fmt.Sprintf("msg-%04d", i); string(rx.msgs[i]) != want {
			t.Fatalf("position %d: got %q want %q", i, rx.msgs[i], want)
		}
	}
}

func TestLargeMessageFragmentsAndRendezvous(t *testing.T) {
	n := New()
	defer n.Close()
	var rx collect
	if _, err := attach(t, n, 2, rx.handler); err != nil {
		t.Fatal(err)
	}
	ep, err := attach(t, n, 1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	// 200 KB: far beyond both the datagram MTU (fragmenting) and the
	// 32 KB eager threshold (rendezvous RTS/CTS round trip first).
	big := make([]byte, 200*1024)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := ep.Send(2, big); err != nil {
		t.Fatal(err)
	}
	rx.waitFor(t, 1, 30*time.Second)
	if sha256.Sum256(rx.msgs[0]) != sha256.Sum256(big) {
		t.Fatal("large message corrupted in flight")
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	n := New()
	defer n.Close()
	var rx1, rx2 collect
	ep1, err := attach(t, n, 1, rx1.handler)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := attach(t, n, 2, rx2.handler)
	if err != nil {
		t.Fatal(err)
	}
	const each = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < each; i++ {
			ep1.Send(2, []byte(fmt.Sprintf("a->b %d", i)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < each; i++ {
			ep2.Send(1, []byte(fmt.Sprintf("b->a %d", i)))
		}
	}()
	wg.Wait()
	rx1.waitFor(t, each, 30*time.Second)
	rx2.waitFor(t, each, 30*time.Second)
}

func TestManyPeersOneSocketEach(t *testing.T) {
	n := New()
	defer n.Close()
	const peers = 8
	var rx collect
	if _, err := attach(t, n, 100, rx.handler); err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= peers; p++ {
		ep, err := attach(t, n, types.NID(p), func(types.NID, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := ep.Send(100, []byte(fmt.Sprintf("peer-%d-msg-%d", p, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	rx.waitFor(t, peers*20, 30*time.Second)
	// Per-source ordering must hold even with sources interleaved.
	next := map[types.NID]int{}
	for i, src := range rx.srcs {
		want := fmt.Sprintf("peer-%d-msg-%d", src, next[src])
		if string(rx.msgs[i]) != want {
			t.Fatalf("from %d: got %q want %q", src, rx.msgs[i], want)
		}
		next[src]++
	}
}

func TestBatchDelivery(t *testing.T) {
	n := New()
	defer n.Close()
	var mu sync.Mutex
	var got []string
	batches := 0
	_, err := n.AttachBatch(2, func(batch []transport.Delivery) {
		mu.Lock()
		batches++
		for i := range batch {
			got = append(got, string(batch[i].Msg))
			if batch[i].Buf == nil {
				mu.Unlock()
				t.Error("delivery without pooled buffer")
				mu.Lock()
			}
			batch[i].Release()
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := attach(t, n, 1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	const count = 300
	for i := 0; i < count; i++ {
		if err := ep.Send(2, []byte(fmt.Sprintf("b-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		done := len(got) == count
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("timeout: %d/%d delivered", len(got), count)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if want := fmt.Sprintf("b-%04d", i); m != want {
			t.Fatalf("position %d: got %q want %q", i, m, want)
		}
	}
	if batches >= count {
		t.Logf("note: no burst coalescing observed (%d batches / %d msgs)", batches, count)
	}
}

func TestWriterCoalescesBursts(t *testing.T) {
	n := New()
	defer n.Close()
	var rx collect
	if _, err := attach(t, n, 2, rx.handler); err != nil {
		t.Fatal(err)
	}
	ep, err := attach(t, n, 1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	const count = 400
	for i := 0; i < count; i++ {
		if err := ep.Send(2, bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	rx.waitFor(t, count, 30*time.Second)
	// The writer counts a burst once its syscall has returned, which can be
	// after the peer has delivered it: wait for the count to catch up.
	for deadline := time.Now().Add(5 * time.Second); n.Stats().Sent.Load() < count && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	sent, bursts := n.Stats().Sent.Load(), n.Stats().SendBursts.Load()
	if sent < count {
		t.Fatalf("sent %d datagrams for %d messages", sent, count)
	}
	// The mmsg fast path must show real coalescing under this firehose;
	// the portable path degenerates to one burst per datagram.
	if hasMmsgFastPath && bursts >= sent {
		t.Errorf("no syscall coalescing: %d bursts for %d datagrams", bursts, sent)
	}
	t.Logf("sent=%d bursts=%d (%.1f pkts/syscall)", sent, bursts, float64(sent)/float64(bursts))
}

func TestBadFramesDropped(t *testing.T) {
	n := New()
	defer n.Close()
	var rx collect
	if _, err := attach(t, n, 2, rx.handler); err != nil {
		t.Fatal(err)
	}
	addr, ok := n.Addr(2)
	if !ok {
		t.Fatal("no addr for nid 2")
	}
	raw, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write([]byte{1, 2, 3})                             // short frame
	raw.Write([]byte{0xFF, 0xFF, 1, 0, 0, 0, 0, 9, 0xAA})  // bad magic
	raw.Write([]byte{0x50, 0x33, 99, 0, 0, 0, 0, 9, 0xAA}) // bad version
	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().BadFrames.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("bad frames counted: %d/3", n.Stats().BadFrames.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if rx.count() != 0 {
		t.Fatalf("%d messages delivered from garbage frames", rx.count())
	}
}

func TestUnknownDestinationFailsFast(t *testing.T) {
	n := New()
	defer n.Close()
	if _, err := attach(t, n, 1, func(types.NID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	nd := n.nodes[1]
	n.mu.Unlock()
	if err := nd.SendPacket(42, []byte("x"), nil, nil); err == nil {
		t.Fatal("send to unregistered NID succeeded")
	}
	if n.Stats().UnknownPeers.Load() == 0 {
		t.Fatal("unknown-peer drop not counted")
	}

	// A closed node refuses a send to a known peer too, and the frame it
	// built goes back to the pool.
	addr, _ := n.Addr(1)
	if err := n.Register(42, addr); err != nil {
		t.Fatal(err)
	}
	nd.Close()
	held := pooltest.Baseline(t)
	if err := nd.SendPacket(42, []byte("x"), nil, nil); !errors.Is(err, types.ErrClosed) {
		t.Errorf("send from a closed node = %v, want ErrClosed", err)
	}
	if n := held(); n != 0 {
		t.Errorf("%d pooled buffers outstanding after the refusal", n)
	}
}

// A send that finds the node's queue full is dropped at the tail and
// counted, and its frame goes back to the pool: retransmission repairs the
// loss.
func TestFullSendQueueDropsAtTheTail(t *testing.T) {
	n := New()
	defer n.Close()
	if _, err := attach(t, n, 1, func(types.NID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	nd := n.nodes[1]
	n.mu.Unlock()
	addr, _ := n.addrs.Get(1)
	held := pooltest.Baseline(t)
	// The writer may be starting up or draining when the queue is filled,
	// so fill it again until a send finds it full. The filler frames are
	// zeros: the node reads them back as bad frames and lets them go.
	for tries := 0; n.Stats().TxDrops.Load() == 0; tries++ {
		if tries == 100 {
			t.Fatal("no send found the queue full")
		}
		nd.qmu.Lock()
		for len(nd.sendQ) < sendQueueCap {
			b := bufpool.Get(frameHeaderSize)
			clear(b.Bytes())
			nd.sendQ = append(nd.sendQ, outPkt{addr: addr, buf: b})
		}
		nd.qmu.Unlock()
		if err := nd.SendPacket(1, []byte("x"), nil, nil); err != nil {
			t.Fatalf("send into a full queue = %v, want nil", err)
		}
	}
	n.Close()
	for deadline := time.Now().Add(10 * time.Second); held() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers outstanding after Close", held())
		}
	}
}

func TestCrossNetworkViaRegistry(t *testing.T) {
	// Two Network instances simulate two OS processes: each binds its own
	// socket and learns the other's address only through Register — the
	// path cmd/ptlnode uses across real machines.
	na := New()
	defer na.Close()
	nb := New()
	defer nb.Close()
	var rx collect
	if _, err := attach(t, nb, 2, rx.handler); err != nil {
		t.Fatal(err)
	}
	epA, err := attach(t, na, 1, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	addrB, _ := nb.Addr(2)
	addrA, _ := na.Addr(1)
	if err := na.Register(2, addrB); err != nil {
		t.Fatal(err)
	}
	if err := nb.Register(1, addrA); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := epA.Send(2, []byte(fmt.Sprintf("x-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rx.waitFor(t, 50, 20*time.Second)
	for i := 0; i < 50; i++ {
		if want := fmt.Sprintf("x-%02d", i); string(rx.msgs[i]) != want {
			t.Fatalf("position %d: got %q want %q", i, rx.msgs[i], want)
		}
	}
}

func TestCloseUnblocksAndDetaches(t *testing.T) {
	n := New()
	var rx collect
	ep, err := n.Attach(1, rx.handler)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		ep.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung (read loop not unblocked)")
	}
	if _, err := n.Attach(1, rx.handler); err != nil {
		t.Fatalf("re-attach after close: %v", err)
	}
	n.Close()
}
