package portals

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs/metrics"
	"repro/internal/rtscts"
	"repro/internal/transport/simnet"
)

const bulkSize = 256 << 10

// bulkFabric is zero-wire simnet+rtscts with the Myrinet MTU; a 256 KiB put
// is a rendezvous, placed straight into the target's window.
func bulkFabric() Fabric {
	rel := rtscts.DefaultConfig()
	rel.RTO, rel.RTOMin = 200*time.Millisecond, 200*time.Millisecond // a stalled test box must not look like loss
	return SimFabric(simnet.Config{MTU: 4096}, rel)
}

// bulkRig is an initiator with slots bulk puts are made from and a target
// window they land in: remote-managed offsets and no event queue, the shape
// the fabric places into.
type bulkRig struct {
	tx, rx *NI
	eq     Handle
	slots  [][]byte
	mds    []Handle
	window []byte
}

func newBulkRig(t testing.TB, m *Machine, slots int) *bulkRig {
	r := &bulkRig{window: make([]byte, slots*bulkSize)}
	var err error
	if r.rx, err = m.NIInit(1, 1, Limits{}); err != nil {
		t.Fatal(err)
	}
	if r.tx, err = m.NIInit(2, 1, Limits{}); err != nil {
		t.Fatal(err)
	}
	me, err := r.rx.MEAttach(0, AnyProcess, 7, 0, Retain, After)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.rx.MDAttach(me, MD{Start: r.window, Threshold: ThresholdInfinite, Options: MDOpPut | MDManageRemote}, Retain); err != nil {
		t.Fatal(err)
	}
	if r.eq, err = r.tx.EQAlloc(4*slots + 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slots; i++ {
		buf := bytes.Repeat([]byte{byte(i + 1)}, bulkSize)
		md, err := r.tx.MDBind(MD{Start: buf, Threshold: ThresholdInfinite, EQ: r.eq, UserPtr: i}, Retain)
		if err != nil {
			t.Fatal(err)
		}
		r.slots, r.mds = append(r.slots, buf), append(r.mds, md)
	}
	return r
}

func (r *bulkRig) put(slot int) error {
	return r.tx.Put(r.mds[slot], AckReq, r.rx.ID(), 0, 0, 7, uint64(slot*bulkSize))
}

// complete waits for the ack of a put and for its send event, in whichever
// order they come, and returns the slot.
func (r *bulkRig) complete(acked, sent []int) (int, error) {
	for {
		ev, err := r.tx.EQPoll(r.eq, 10*time.Second)
		if err != nil {
			return 0, err
		}
		slot := ev.UserPtr.(int)
		switch ev.Type {
		case EventSend:
			sent[slot]++
		case EventAck:
			acked[slot]++
		default:
			return 0, fmt.Errorf("event %v", ev.Type)
		}
		if acked[slot] > 0 && sent[slot] > 0 {
			acked[slot]--
			sent[slot]--
			return slot, nil
		}
	}
}

// placed reports how many messages the fabric placed into node nid.
func placed(t *testing.T, m *Machine, nid NID) int64 {
	reg := metrics.NewRegistry()
	m.RegisterMetrics(reg)
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.HasPrefix(line, "portals_rtscts_placed_total{") && strings.Contains(line, fmt.Sprintf(`node="%d"`, nid)) {
			fields := strings.Fields(line)
			n, _ = strconv.ParseInt(fields[len(fields)-1], 10, 64)
		}
	}
	return n
}

// TestPlacedBulkPutAllocs holds an acknowledged 256 KiB put over
// simnet+rtscts — the header, the body lent out of the send descriptor and
// cut into fragments of it, the fragments placed in the target's window, the
// ack, and the body's return that posts the send event — to zero
// allocations, the lent body's Buf included.
func TestPlacedBulkPutAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	m := newMachine(t, bulkFabric())
	r := newBulkRig(t, m, 1)
	acked, sent := make([]int, 1), make([]int, 1)
	zeroAllocs(t, "a placed 256 KiB put", func() {
		if err := r.put(0); err != nil {
			t.Fatal(err)
		}
		if _, err := r.complete(acked, sent); err != nil {
			t.Fatal(err)
		}
	})
	if got := placed(t, m, 1); got < warmRuns+measuredRuns {
		t.Errorf("%d puts placed, want every one of %d", got, warmRuns+measuredRuns)
	}
	if !bytes.Equal(r.window, r.slots[0]) {
		t.Error("the window does not hold what was sent")
	}
}

// A put whose send counter arms a put to the same peer: the body's return,
// which runs on the goroutine that dropped the fabric's last reference to
// it, fires the triggered put, which goes out through the same stream. The
// return happens outside the stream's lock, or this hangs.
func TestSendTriggeredPutToSamePeer(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m := newMachine(t, bulkFabric())
			r := newBulkRig(t, m, 2)
			ct, err := r.tx.CTAlloc()
			if err != nil {
				t.Fatal(err)
			}
			first, err := r.tx.MDBind(MD{Start: r.slots[0], Threshold: ThresholdInfinite, EQ: r.eq, UserPtr: 0,
				Options: MDCTSend, CT: ct}, Retain)
			if err != nil {
				t.Fatal(err)
			}
			const rounds = 20
			for i := uint64(1); i <= rounds; i++ {
				if err := r.tx.TriggeredPut(r.mds[1], AckReq, r.rx.ID(), 0, 0, 7, bulkSize, ct, i); err != nil {
					t.Fatal(err)
				}
			}
			acked, sent := make([]int, 2), make([]int, 2)
			for i := 0; i < rounds; i++ {
				if err := r.tx.Put(first, AckReq, r.rx.ID(), 0, 0, 7, 0); err != nil {
					t.Fatal(err)
				}
				for done := 0; done < 2; done++ {
					if _, err := r.complete(acked, sent); err != nil {
						t.Fatalf("round %d: %v", i, err)
					}
				}
			}
			if v, _ := r.tx.CTGet(ct); v.Success != rounds {
				t.Errorf("send counter = %d, want %d", v.Success, rounds)
			}
			if !bytes.Equal(r.window[bulkSize:], r.slots[1]) {
				t.Error("the triggered put's data did not land")
			}
		})
	}
}

// Over a fabric that duplicates every packet and holds every other
// duplicate back until its successor passes, a put's last fragment can leave
// a duplicate on the link behind the ack that retired it — and nothing
// follows it, for each put here is unacknowledged and waited for before the
// next is made. The
// send event comes anyway: a held packet does not keep the body.
func TestSendEventDespiteAHoldOnAnIdleLink(t *testing.T) {
	rel := rtscts.DefaultConfig()
	rel.RTO, rel.RTOMin = 200*time.Millisecond, 200*time.Millisecond
	m := newMachine(t, SimFabric(simnet.Config{MTU: 4096, DupRate: 1, ReorderRate: 1, Seed: 1}, rel))
	r := newBulkRig(t, m, 1)
	for i := 0; i < 8; i++ {
		// No ack: nothing the target sends makes the initiator send again.
		if err := r.tx.Put(r.mds[0], NoAckReq, r.rx.ID(), 0, 0, 7, 0); err != nil {
			t.Fatal(err)
		}
		if ev, err := r.tx.EQPoll(r.eq, 10*time.Second); err != nil || ev.Type != EventSend {
			t.Fatalf("put %d: %v, %v; want its send event", i, ev.Type, err)
		}
	}
	if !bytes.Equal(r.window[:bulkSize], r.slots[0]) {
		t.Error("the window does not hold what was sent")
	}
}

// BenchmarkPut256K is four acknowledged 256 KiB puts in flight through the
// public API over zero-wire simnet, placed in the target's window: an op is
// one put, from Put to both its ack and its send event.
func BenchmarkPut256K(b *testing.B) {
	const inflight = 4
	m := NewMachine(bulkFabric())
	defer m.Close()
	r := newBulkRig(b, m, inflight)
	acked, sent := make([]int, inflight), make([]int, inflight)
	for i := 0; i < inflight; i++ {
		if err := r.put(i); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(bulkSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot, err := r.complete(acked, sent)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.put(slot); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for i := 0; i < inflight; i++ {
		if _, err := r.complete(acked, sent); err != nil {
			b.Fatal(err)
		}
	}
}
