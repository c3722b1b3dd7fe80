package rtscts

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
)

// The length fields of a first fragment are the peer's word, and so is where
// a fabric that carries header and fragment apart was told to split them.
// Whatever they claim, the receiver must not panic, must not size an
// allocation on the claim alone, must count each discarded packet exactly
// once, and must keep the stream usable for the next well-formed message.
// Every row is fed the way udp hands a packet over (whole) and the way simnet
// does (split behind the header); a row with a split of its own is a packet
// no fabric of ours would cut that way, which is not decoded at all.
func TestHostileLengths(t *testing.T) {
	const peer = 7
	eager := DefaultConfig().EagerMax
	first := func(kind uint8) uint8 { return flagFirst | kind<<msgKindShift }
	rts := func(announced uint64, head int) []byte {
		return append(binary.BigEndian.AppendUint64(nil, announced), make([]byte, head)...)
	}

	for _, tc := range []struct {
		name      string
		flags     uint8
		aux       uint64
		payload   []byte
		rejected  bool
		stray     bool // counted as a stray grant instead
		delivered int  // messages handed up by this packet
		open      int  // largest delivery buffer the packet may leave open (0: none)
		split     int  // cut the packet here and nowhere else: it must be refused undecoded
	}{
		{name: "aux=0 empty message", flags: first(msgApp), aux: 0, delivered: 1},
		{name: "aux=0 with payload", flags: first(msgApp), aux: 0, payload: []byte("xy"), rejected: true},
		{name: "aux=1 one byte", flags: first(msgApp), aux: 1, payload: []byte("x"), delivered: 1},
		{name: "aux=1 overrun", flags: first(msgApp), aux: 1, payload: []byte("xy"), rejected: true},
		{name: "EagerMax+1 without RTS", flags: first(msgApp), aux: uint64(eager) + 1, payload: make([]byte, 100), rejected: true},
		{name: "aux=1<<40", flags: first(msgApp), aux: 1 << 40, payload: make([]byte, 100), rejected: true},
		{name: "aux=1<<63", flags: first(msgApp), aux: 1 << 63, payload: make([]byte, 100), rejected: true},
		{name: "aux=max", flags: first(msgApp), aux: ^uint64(0), rejected: true},
		{name: "continuation with nothing open", flags: 0, payload: make([]byte, 100), rejected: true},
		{name: "RTS announcing 1<<40", flags: first(msgRTS), aux: rtsSize, payload: rts(1<<40, 0), rejected: true},
		{name: "RTS with short payload", flags: first(msgRTS), aux: rtsSize, payload: []byte{1, 2, 3}, rejected: true},
		{name: "RTS with short head", flags: first(msgRTS), aux: rtsSize + 10, payload: rts(50_000, 10), rejected: true},
		{name: "RTS with long head", flags: first(msgRTS), aux: rtsSize + 100, payload: rts(50_000, 100), rejected: true},
		{name: "RTS head longer than its message", flags: first(msgRTS), aux: rtsSize + 60, payload: rts(40, 60), rejected: true},
		{name: "RTS aux disagrees with payload", flags: first(msgRTS), aux: rtsSize + transport.HeadSize, payload: rts(50_000, 40), rejected: true},
		{name: "RTS aux below the length field", flags: first(msgRTS), aux: 4, payload: []byte{0, 0, 0, 1}, rejected: true},
		{name: "CTS with payload", flags: first(msgCTS), aux: 0, payload: []byte("x"), rejected: true},
		{name: "CTS with nothing held", flags: first(msgCTS), aux: 0, stray: true},
		{name: "unknown message kind", flags: first(3), aux: 64, payload: make([]byte, 64), rejected: true},
		{name: "header straddles the split", flags: first(msgApp), aux: 5, payload: []byte("hello"), split: pktHeaderSize / 2},
		{name: "fragment on both sides of the split", flags: first(msgApp), aux: 5, payload: []byte("hello"), split: pktHeaderSize + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cuts := map[string]int{"whole": -1, "split": pktHeaderSize}
			if tc.split != 0 {
				cuts = map[string]int{"hostile": tc.split}
			}
			for shape, cut := range cuts {
				t.Run(shape, func(t *testing.T) {
					net := simnet.New(simnet.Instant())
					defer net.Close()
					var sink msgSink
					c, err := attachSim(net, 1, Config{}, sink.handler)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					feed := func(cut int, seq uint64, flags uint8, aux uint64, payload []byte) {
						pkt := testPacket(pktData, flags, seq, aux, payload)
						if cut < 0 {
							cut = len(pkt)
						}
						c.gatedPacket(peer, pkt[:cut], pkt[cut:])
						c.out.Flush()
					}

					held := pooltest.Baseline(t)
					feed(cut, 0, tc.flags, tc.aux, tc.payload)

					st := c.Stats()
					if tc.split != 0 {
						if _, known := c.receivers.Get(peer); known || held() != 0 || sink.count() != 0 {
							t.Fatal("a packet that cannot be decoded reached the stream")
						}
						feed(-1, 0, first(msgApp), 5, []byte("hello"))
						if sink.count() != 1 || st.BadLength.Load() != 0 {
							t.Fatalf("after the undecodable packet: %d messages, bad_length %d; want the stream untouched", sink.count(), st.BadLength.Load())
						}
						return
					}
					wantBad := int64(0)
					if tc.rejected {
						wantBad = 1
					}
					if got := st.BadLength.Load(); got != wantBad {
						t.Errorf("bad_length = %d, want %d", got, wantBad)
					}
					wantStray := int64(0)
					if tc.stray {
						wantStray = 1
					}
					if got := st.StrayGrants.Load(); got != wantStray {
						t.Errorf("stray_cts = %d, want %d", got, wantStray)
					}
					if d, o := st.DupsDiscarded.Load(), st.OutOfOrder.Load(); d != 0 || o != 0 {
						t.Errorf("an in-sequence packet was also counted as dup (%d) or out of order (%d)", d, o)
					}
					if tc.rejected && st.CTSSent.Load()+st.MsgsDelivered.Load() != 0 {
						t.Error("a rejected packet still produced a grant or a delivery")
					}
					if got := sink.count(); got != tc.delivered {
						t.Errorf("delivered %d messages, want %d", got, tc.delivered)
					}
					r := c.receiver(peer)
					r.mu.Lock()
					if r.asm != nil {
						t.Errorf("receiver committed %d bytes on the peer's word", cap(r.asm.Bytes()))
					}
					expected := r.expected
					r.mu.Unlock()
					if expected != 1 {
						t.Fatalf("stream did not move past the packet: expected seq %d, want 1", expected)
					}

					// The stream is still usable: the next well-formed message arrives.
					feed(cut, 1, first(msgApp), 5, []byte("hello"))
					waitFor(t, 5*time.Second, func() bool { return sink.count() == tc.delivered+1 })
					if got := string(sink.get(tc.delivered)); got != "hello" {
						t.Errorf("message after the hostile packet = %q, want %q", got, "hello")
					}
					if got := st.BadLength.Load(); got != wantBad {
						t.Errorf("bad_length moved to %d on a well-formed message", got)
					}
					if got := st.StrayGrants.Load(); got != wantStray {
						t.Errorf("stray_cts moved to %d on a well-formed message", got)
					}
				})
			}
		})
	}
}
