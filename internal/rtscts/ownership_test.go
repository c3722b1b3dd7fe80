package rtscts

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// outstanding is the number of pooled buffers acquired and not yet
// released, process-wide.
func outstanding() int64 {
	gets, _, puts := bufpool.Usage()
	return gets - puts
}

// waitBalanced waits for every buffer acquired since start to be released:
// after Close, links and lanes drain on their own goroutines.
func waitBalanced(t *testing.T, start int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for outstanding() != start {
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffers outstanding: %d more than before the test", outstanding()-start)
		}
		time.Sleep(time.Millisecond)
	}
}

// Send's contract is a copy: the caller may scribble on its slice the
// moment Send returns, while the message is still queued or being
// retransmitted out of the layer's own buffer.
func TestSendCopiesBeforeReturning(t *testing.T) {
	start := outstanding()
	net := simnet.New(simnet.Config{MTU: 512, LossRate: 0.2, Seed: 11})
	var sb msgSink
	a, err := attachSim(net, 1, Config{RTO: 2 * time.Millisecond, EagerMax: 1024}, func(types.NID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := attachSim(net, 2, Config{}, sb.handler)
	if err != nil {
		t.Fatal(err)
	}
	const count = 40
	scratch := make([]byte, 3000) // six fragments, rendezvous
	for i := 0; i < count; i++ {
		for j := range scratch {
			scratch[j] = byte(i + j)
		}
		if err := a.Send(2, scratch); err != nil {
			t.Fatal(err)
		}
		for j := range scratch {
			scratch[j] = 0xEE
		}
	}
	waitFor(t, 60*time.Second, func() bool { return sb.count() == count })
	for i := 0; i < count; i++ {
		for j, v := range sb.get(i) {
			if v != byte(i+j) {
				t.Fatalf("message %d byte %d = %#x: the layer read the caller's slice after Send returned", i, j, v)
			}
		}
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, start)
}

// lastFragDropper is a packet network that loses the first transmission of
// every application message's final fragment, so the message can only
// complete through a retransmission — which, with a 1 ms RTO, fires while
// acks for the rest of the window are still retiring descriptors.
type lastFragDropper struct{ simPacketNetwork }

func (n lastFragDropper) AttachPacket(nid types.NID, h PacketHandler, flush func()) (PacketEndpoint, error) {
	ep, err := n.simPacketNetwork.AttachPacket(nid, h, flush)
	if err != nil {
		return nil, err
	}
	return &lastFragDropEP{PacketEndpoint: ep, dropped: make(map[uint64]bool)}, nil
}

type lastFragDropEP struct {
	PacketEndpoint
	mu      sync.Mutex
	left    uint64          // bytes of the current application message still to come
	dropped map[uint64]bool // sequence numbers already lost once
}

func (ep *lastFragDropEP) SendPacket(dst types.NID, hdr, payload []byte) error {
	kind, flags, seq, aux, _, err := decodePacket(hdr)
	if err == nil && kind == pktData {
		ep.mu.Lock()
		drop := false
		if !ep.dropped[seq] { // first transmission: track the message it belongs to
			if flags&flagFirst != 0 {
				ep.left = 0
				if msgKind(flags) == msgApp {
					ep.left = aux
				}
			}
			if ep.left > 0 {
				ep.left -= uint64(len(payload))
				drop = ep.left == 0
			}
			ep.dropped[seq] = true
		}
		ep.mu.Unlock()
		if drop {
			return nil
		}
	}
	return ep.PacketEndpoint.SendPacket(dst, hdr, payload)
}

// The ack that retires a message's last fragment releases the message
// buffer; a retransmission gathering from that buffer at the same moment
// would be a use-after-release. Both happen under the window lock, so the
// race detector stays quiet and the bytes arrive intact. The timeout is
// pinned at 1 ms under a fabric whose round trip is longer, so besides the
// forced loss nearly every window is also resent while its acks are on
// their way back.
func TestRetransmitRacesRetiringAck(t *testing.T) {
	start := outstanding()
	net := simnet.New(simnet.Config{MTU: 1024, Latency: 700 * time.Microsecond})
	pn := lastFragDropper{simPacketNetwork{net}}
	cfg := Config{RTO: time.Millisecond, RTOMin: time.Millisecond, RTOMax: time.Millisecond, EagerMax: 2048, Window: 8}
	var sb msgSink
	a, err := Attach(pn, 1, cfg, transport.Borrow(func(types.NID, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Attach(pn, 2, cfg, transport.Borrow(sb.handler))
	if err != nil {
		t.Fatal(err)
	}
	const count = 60
	var want [][]byte
	for i := 0; i < count; i++ {
		msg := make([]byte, 5000+i*13) // rendezvous, five or six fragments
		for j := range msg {
			msg[j] = byte(i*7 + j)
		}
		want = append(want, msg)
		if err := a.Send(2, msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 60*time.Second, func() bool { return sb.count() == count })
	for i := range want {
		if !bytes.Equal(sb.get(i), want[i]) {
			t.Fatalf("message %d corrupted: a retransmission read a recycled buffer", i)
		}
	}
	if a.Stats().Retransmits.Load() < count {
		t.Fatalf("only %d retransmissions for %d lost final fragments", a.Stats().Retransmits.Load(), count)
	}
	a.Close()
	b.Close()
	net.Close()
	waitBalanced(t, start)
}
