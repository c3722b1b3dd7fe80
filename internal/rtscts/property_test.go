package rtscts

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// Wire-format properties of the reliability layer's packet header.

// testPacket materialises header+payload the way a fabric that frames its
// datagrams does.
func testPacket(kind, flags uint8, seq, aux uint64, payload []byte) []byte {
	var hdr [pktHeaderSize]byte
	putHeader(&hdr, kind, flags, seq, aux)
	return append(hdr[:], payload...)
}

func TestPacketHeaderRoundTripProperty(t *testing.T) {
	f := func(kindSel bool, flags uint8, seq, aux uint64, payload []byte) bool {
		kind := pktData
		if kindSel {
			kind = pktAck
		}
		// Whole, as udp hands a packet over, and split behind the header,
		// as simnet does: the same packet either way.
		pkt := testPacket(kind, flags, seq, aux, payload)
		for _, cut := range []int{len(pkt), pktHeaderSize} {
			k, fl, s, a, p, err := decodePacket(pkt[:cut], pkt[cut:])
			if err != nil || k != kind || fl != flags || s != seq || a != aux || !bytes.Equal(p, payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPacketDecodeRejectsGarbage(t *testing.T) {
	if _, _, _, _, _, err := decodePacket([]byte{1, 2, 3}, nil); err == nil {
		t.Error("short packet accepted")
	}
	bad := testPacket(pktData, 0, 0, 0, nil)
	bad[0] = 99
	if _, _, _, _, _, err := decodePacket(bad, nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMsgKindEncoding(t *testing.T) {
	for _, k := range []uint8{msgApp, msgRTS, msgCTS} {
		flags := flagFirst | k<<msgKindShift
		if msgKind(flags) != k {
			t.Errorf("kind %d round trip = %d", k, msgKind(flags))
		}
	}
}

// Property: any message stream pushed through a lossy+duplicating+
// reordering fabric arrives exactly once, in order, bit-identical — and
// every pooled buffer the layer took on the way (queued messages, in-flight
// windows, delivery buffers) and every reference the fabric took to one
// (packets queued on a link, held for reordering, duplicated) is back in the
// pool once both ends are closed. This is the layer's entire contract,
// checked end to end with randomized message shapes — to the end of the
// stream, and with both ends and the fabric closed in the middle of it,
// whatever the links hold at that moment.
func TestExactlyOnceDeliveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("stress property skipped in -short")
	}
	for _, tc := range []struct {
		name    string
		cfg     simnet.Config
		closeAt int // close everything once this many messages have arrived (0: all of them)
	}{
		{name: "seed=3", cfg: simnet.Config{Seed: 3}},
		{name: "seed=17", cfg: simnet.Config{Seed: 17}},
		// Links that tail-drop what a burst puts beyond four packets.
		{name: "seed=3,queuecap=4", cfg: simnet.Config{Seed: 3, QueueCap: 4}},
		// A wire slow enough (a packet every half millisecond) that Close
		// finds the links with packets queued and waiting for it.
		{name: "seed=17,slow,closed-midway", cfg: simnet.Config{Seed: 17, Bandwidth: 1e6}, closeAt: 6},
		{name: "seed=3,slow,queuecap=4,closed-midway", cfg: simnet.Config{Seed: 3, Bandwidth: 1e6, QueueCap: 4}, closeAt: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			held := pooltest.Baseline(t)
			cfg := tc.cfg
			cfg.MTU, cfg.LossRate, cfg.DupRate, cfg.ReorderRate = 512, 0.1, 0.1, 0.1
			a, b, _, sb, net := pairOn(t, cfg, Config{RTO: 15 * time.Millisecond, EagerMax: 1024, Window: 16})
			// Message sizes chosen to hit: empty, sub-fragment, exact
			// fragment boundary, multi-fragment eager, rendezvous.
			sizes := []int{0, 1, 492, 493, 900, 1024, 1025, 5000, 20000}
			var want [][]byte
			for i, size := range sizes {
				msg := make([]byte, size)
				for j := range msg {
					msg[j] = byte(i*37 + j)
				}
				want = append(want, msg)
				if err := a.Send(2, msg); err != nil {
					t.Fatal(err)
				}
			}
			until := len(want)
			if tc.closeAt != 0 {
				until = tc.closeAt
			}
			waitFor(t, 60*time.Second, func() bool { return sb.count() >= until })
			// The last acks may still be lost in the fabric, and midway
			// whole messages are: what is in flight at Close is released by
			// shutdown, not by ack.
			a.Close()
			b.Close()
			net.Close()
			for i := 0; i < sb.count(); i++ {
				if !bytes.Equal(sb.get(i), want[i]) {
					t.Fatalf("message %d (size %d) corrupted or reordered", i, len(want[i]))
				}
			}
			if tc.closeAt == 0 && sb.count() != len(want) {
				t.Fatalf("%d messages arrived, want %d", sb.count(), len(want))
			}
			if st := net.Stats(); tc.cfg.QueueCap != 0 && st.TailDrops.Load() == 0 {
				t.Error("a four-packet queue never tail-dropped")
			}
			waitBalanced(t, held)
		})
	}
}

// The eager threshold is a boundary worth pinning exactly: EagerMax bytes
// go eagerly, EagerMax+1 performs rendezvous.
func TestEagerBoundaryExact(t *testing.T) {
	a, b, _, sb, _ := pairOn(t, simnet.Instant(), Config{EagerMax: 777})
	if err := a.Send(2, make([]byte, 777)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sb.count() == 1 })
	if a.Stats().RTSSent.Load() != 0 {
		t.Error("EagerMax-sized message used rendezvous")
	}
	if err := a.Send(2, make([]byte, 778)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sb.count() == 2 })
	if a.Stats().RTSSent.Load() != 1 {
		t.Error("EagerMax+1 message did not use rendezvous")
	}
	if b.Stats().CTSSent.Load() != 1 {
		t.Error("no CTS granted")
	}
}

// Conn attach over too-small MTU must fail loudly, not truncate silently.
func TestMTUTooSmall(t *testing.T) {
	net := simnet.New(simnet.Config{MTU: pktHeaderSize})
	defer net.Close()
	if _, err := attachSim(net, 1, Config{}, func(types.NID, []byte) {}); err == nil {
		t.Error("attach accepted MTU with no payload room")
	}
}
