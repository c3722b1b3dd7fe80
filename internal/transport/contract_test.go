package transport_test

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/bufpool/pooltest"
	"repro/internal/rtscts"
	"repro/internal/transport"
	"repro/internal/transport/loopback"
	"repro/internal/transport/simnet"
	"repro/internal/transport/tcp"
	"repro/internal/transport/udp"
	"repro/internal/types"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

// The seam has one send contract and one delivery contract (package
// comment); this is the one table that holds every fabric to both.
var fabrics = []struct {
	name string
	new  func() transport.Network
	// knowsPeers: a send to a NID nobody attached fails at the call. The
	// packet fabrics are connectionless and cannot tell; there the message
	// is retransmitted until Close, which must still release it.
	knowsPeers bool
	// announces: the fabric runs a rendezvous and offers placement
	// (transport.Announcer). The others deliver whole messages to any handler.
	announces bool
}{
	{"loopback", func() transport.Network { return loopback.New() }, true, false},
	{"simnet+rtscts", func() transport.Network {
		return rtscts.NewNetwork(simnet.New(simnet.Config{MTU: 1024}), rtscts.Config{})
	}, false, true},
	// The same over links that duplicate, hold packets back for reordering
	// and tail-drop what a burst puts beyond sixteen: a packet there is a
	// reference to the sender's buffer, and Close finds some still on the
	// links — all of it must come back to the pool like everything else.
	{"simnet+rtscts,faulty", func() transport.Network {
		faults := simnet.Config{MTU: 1024, DupRate: 0.02, ReorderRate: 0.02, QueueCap: 16, Seed: 9}
		return rtscts.NewNetwork(simnet.New(faults), rtscts.Config{})
	}, false, true},
	{"tcp", func() transport.Network { return tcp.New() }, true, false},
	{"udp", func() transport.Network { return udp.New() }, false, true},
}

const (
	sources   = 4 // concurrent senders into one endpoint
	perSource = 150
	sinkNID   = types.NID(100)

	bulkSize  = 40_000 // beyond rtscts's 32 KiB eager limit
	bulkEvery = 50
	bulks     = sources * (perSource / bulkEvery)
)

// message builds the seq-th message from src in a pooled buffer: an 8-byte
// stamp, then a pattern only that (src, seq) produces. Sizes vary so that
// messages cross pool size classes and, on the packet fabrics, the
// single-packet and eager/rendezvous boundaries.
func message(src types.NID, seq uint32) *bufpool.Buf {
	size := 8 + int(seq%97)
	if seq%25 == 24 {
		size = 5000
	}
	if seq%bulkEvery == bulkEvery-1 {
		size = bulkSize
	}
	b := bufpool.Get(size)
	msg := b.Bytes()
	binary.BigEndian.PutUint32(msg[0:], uint32(src))
	binary.BigEndian.PutUint32(msg[4:], seq)
	for j := 8; j < len(msg); j++ {
		msg[j] = byte(int(src)*31 + int(seq) + j)
	}
	return b
}

// send sends message(src, seq) to dst the ways a sender can: whole in its
// pooled buffer, or, for every other message, as a 16-byte head and a body
// lent out of memory the sender keeps — one piece or, every fourth message,
// three segments. The buffer ledger (pooltest) sees every lent body come
// back.
func send(ep transport.Endpoint, dst, src types.NID, seq uint32) error {
	m := message(src, seq)
	if seq%2 == 0 || len(m.Bytes()) <= 16 {
		return ep.SendBuf(dst, m, nil)
	}
	kept := append([]byte(nil), m.Bytes()[16:]...)
	head := bufpool.Get(16)
	copy(head.Bytes(), m.Bytes())
	m.Release()
	var segs [][]byte
	if seq%4 == 3 {
		segs = [][]byte{kept[:len(kept)/3], kept[len(kept)/3 : len(kept)/2], kept[len(kept)/2:]}
	}
	return ep.SendBuf(dst, head, new(bufpool.Buf).Lend(kept, segs, func() {}))
}

// intact reports whether msg is exactly message(src, seq) for its stamp.
func intact(from types.NID, msg []byte) (seq uint32, ok bool) {
	if len(msg) < 8 || types.NID(binary.BigEndian.Uint32(msg[0:])) != from {
		return 0, false
	}
	seq = binary.BigEndian.Uint32(msg[4:])
	want := message(from, seq)
	defer want.Release()
	return seq, string(want.Bytes()) == string(msg)
}

// sink is the receiving endpoint's handler, in its three forms.
type sink struct {
	t       *testing.T
	inside  atomic.Int32 // handler calls in progress; the contract says ≤ 1
	overlap atomic.Bool

	mu   sync.Mutex
	next map[types.NID]uint32 // per-source FIFO cursor
	held []transport.Delivery // owned messages kept past the handler's return
	seen int

	announced int // announcements taken (the placing form)
	bigBufs   int // pooled buffers of bulk size that came with a delivery
}

// landing is where the placing form puts one announced message.
type landing struct {
	s   *sink
	src types.NID
	mem []byte
}

func (l *landing) WriteAt(off int, p []byte) { copy(l.mem[off:], p) }

func (l *landing) Abort() { l.s.t.Errorf("placement of a message from %d aborted", l.src) }

func (s *sink) enter() {
	if s.inside.Add(1) != 1 {
		s.overlap.Store(true)
	}
	runtime.Gosched() // give a second feeder the chance to barge in
}

func (s *sink) arrive(src types.NID, msg []byte) {
	seq, ok := intact(src, msg)
	if !ok {
		s.t.Errorf("message from %d arrived damaged (%d bytes)", src, len(msg))
	}
	if seq != s.next[src] {
		s.t.Errorf("source %d: got seq %d, want %d (per-pair FIFO)", src, seq, s.next[src])
	}
	s.next[src] = seq + 1
	s.seen++
}

// batch keeps every message: ownership came with the call.
func (s *sink) batch(batch []transport.Delivery) {
	s.enter()
	s.mu.Lock()
	for i := range batch {
		s.arrive(batch[i].Src, batch[i].Msg)
		s.held = append(s.held, batch[i])
	}
	s.mu.Unlock()
	s.inside.Add(-1)
}

// placing is the form of a handler that asked for announcements: a whole
// message is looked at and released, an announced one is placed into memory
// of the handler's own and takes its turn in the order when it completes.
func (s *sink) placing(batch []transport.Delivery) {
	s.enter()
	s.mu.Lock()
	for i := range batch {
		d := &batch[i]
		if d.Buf != nil && cap(d.Buf.Bytes()) >= bulkSize {
			s.bigBufs++
		}
		switch {
		case d.Sink != nil:
			l := d.Sink.(*landing)
			d.Sink = nil
			if d.Aborted {
				l.Abort()
			}
			s.arrive(l.src, l.mem)
		case d.Total != 0:
			s.announced++
			l := &landing{s: s, src: d.Src, mem: make([]byte, d.Total)}
			if copy(l.mem, d.Msg) != min(d.Total, transport.HeadSize) {
				s.t.Errorf("announcement of %d bytes carries a %d-byte head", d.Total, len(d.Msg))
			}
			if !d.Place(l) {
				s.t.Errorf("placement of a message from %d refused", d.Src)
			}
		default:
			s.arrive(d.Src, d.Msg)
		}
		d.Release()
	}
	s.mu.Unlock()
	s.inside.Add(-1)
}

// borrowed is the transport.Handler form: msg is looked at and let go.
func (s *sink) borrowed(src types.NID, msg []byte) {
	s.enter()
	s.mu.Lock()
	s.arrive(src, msg)
	s.mu.Unlock()
	s.inside.Add(-1)
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

func discard(batch []transport.Delivery) {
	for i := range batch {
		batch[i].Release()
	}
}

// The shutdown rule: Endpoint.Close returns after the handler's last call.
// A handler parked inside a call while traffic keeps coming holds Close up;
// once the call returns Close does too, with nothing of the handler still
// running, no call starts afterwards, and every pooled buffer comes back.
func TestContractCloseWaitsForHandler(t *testing.T) {
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			held := pooltest.Baseline(t)
			net := f.new()
			defer net.Close()
			s := &sink{t: t}
			parked, release := make(chan struct{}), make(chan struct{})
			var park sync.Once
			var closed atomic.Bool
			sinkEP, err := net.AttachBatch(sinkNID, func(batch []transport.Delivery) {
				if closed.Load() {
					t.Error("a handler call started after Close returned")
				}
				s.enter()
				park.Do(func() {
					close(parked)
					<-release
				})
				discard(batch)
				s.inside.Add(-1)
			})
			if err != nil {
				t.Fatal(err)
			}
			src, err := net.AttachBatch(1, discard)
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // traffic before, during and after Close
				defer wg.Done()
				for seq := uint32(0); seq < 2000; seq++ {
					select {
					case <-stop:
						return
					default:
					}
					if src.SendBuf(sinkNID, message(1, seq), nil) != nil {
						return
					}
					runtime.Gosched()
				}
			}()
			select {
			case <-parked:
			case <-time.After(10 * time.Second):
				t.Fatal("no handler call")
			}

			returned := make(chan struct{})
			go func() {
				if err := sinkEP.Close(); err != nil {
					t.Error(err)
				}
				if n := s.inside.Load(); n != 0 {
					t.Errorf("Close returned with %d handler calls in progress", n)
				}
				closed.Store(true)
				close(returned)
			}()
			select {
			case <-returned:
				t.Error("Close returned while the handler was parked inside a call")
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			select {
			case <-returned:
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not return after the handler call did")
			}
			time.Sleep(10 * time.Millisecond) // the traffic goes on: no call may start
			close(stop)
			wg.Wait()
			if err := src.Close(); err != nil {
				t.Error(err)
			}
			if err := net.Close(); err != nil {
				t.Error(err)
			}
			for deadline := time.Now().Add(10 * time.Second); held() != 0; {
				if time.Now().After(deadline) {
					t.Fatalf("pooled buffers outstanding after Close: %d", held())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestContract(t *testing.T) {
	for _, f := range fabrics {
		for _, form := range []string{"AttachBatch", "Attach", "Announce"} {
			t.Run(f.name+"/"+form, func(t *testing.T) {
				held := pooltest.Baseline(t)
				net := f.new()
				defer net.Close()
				s := &sink{t: t, next: make(map[types.NID]uint32)}
				var sinkEP transport.Endpoint
				var err error
				switch form {
				case "Attach":
					sinkEP, err = net.Attach(sinkNID, s.borrowed)
				case "AttachBatch":
					sinkEP, err = net.AttachBatch(sinkNID, s.batch)
				case "Announce":
					sinkEP, err = net.AttachBatch(sinkNID, s.placing)
				}
				if err != nil {
					t.Fatal(err)
				}
				if a, ok := sinkEP.(transport.Announcer); form == "Announce" && ok {
					a.Announce()
				} else if form == "Announce" && f.announces {
					t.Fatal("the fabric's endpoint is no transport.Announcer")
				}

				eps := make([]transport.Endpoint, sources)
				var wg sync.WaitGroup
				for i := range eps {
					nid := types.NID(i + 1)
					if eps[i], err = net.AttachBatch(nid, discard); err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(ep transport.Endpoint) {
						defer wg.Done()
						for seq := uint32(0); seq < perSource; seq++ {
							if err := send(ep, sinkNID, nid, seq); err != nil {
								t.Errorf("source %d seq %d: %v", nid, seq, err)
								return
							}
						}
					}(eps[i])
				}
				wg.Wait()
				for deadline := time.Now().Add(30 * time.Second); s.count() < sources*perSource; {
					if t.Failed() || time.Now().After(deadline) {
						t.Fatalf("%d of %d messages arrived", s.count(), sources*perSource)
					}
					time.Sleep(time.Millisecond)
				}

				if s.overlap.Load() {
					t.Error("two handler calls for one endpoint overlapped")
				}

				// A handler that asked gets every rendezvous message placed —
				// no pooled buffer of its size is obtained to deliver it — on
				// the fabrics that announce, and whole messages on the others.
				if form == "Announce" {
					want := 0
					if f.announces {
						want = bulks
						st := sinkEP.(*rtscts.Conn).Stats()
						if st.Placed.Load() != bulks || st.PlacedBytes.Load() != bulks*(bulkSize-transport.HeadSize) {
							t.Errorf("placed %d messages, %d bytes; want %d, %d", st.Placed.Load(), st.PlacedBytes.Load(), bulks, bulks*(bulkSize-transport.HeadSize))
						}
					}
					s.mu.Lock()
					if s.announced != want || (f.announces && s.bigBufs != 0) {
						t.Errorf("%d announcements, %d bulk-sized delivery buffers; want %d, 0", s.announced, s.bigBufs, want)
					}
					s.mu.Unlock()
				}

				// Every kept message must still read as sent, long after its
				// handler call returned and hundreds more went by.
				s.mu.Lock()
				for i := range s.held {
					if _, ok := intact(s.held[i].Src, s.held[i].Msg); !ok {
						t.Errorf("held message %d (from %d) changed before Release", i, s.held[i].Src)
					}
					s.held[i].Release()
				}
				s.mu.Unlock()

				// A failed SendBuf has consumed its buffer all the same: to a
				// destination that detached, to one that never existed, and
				// after the fabric is gone.
				gone, err := net.AttachBatch(50, discard)
				if err != nil {
					t.Fatal(err)
				}
				if err := gone.Close(); err != nil {
					t.Error(err)
				}
				for _, dst := range []types.NID{50, 999} {
					if err := eps[0].SendBuf(dst, message(1, 0), nil); f.knowsPeers && err == nil {
						t.Errorf("SendBuf to unattached NID %d succeeded", dst)
					}
				}
				for _, ep := range eps {
					if err := ep.Close(); err != nil {
						t.Error(err)
					}
				}
				if err := net.Close(); err != nil {
					t.Error(err)
				}
				if err := eps[0].SendBuf(sinkNID, message(1, 0), nil); err == nil {
					t.Error("SendBuf after Close succeeded")
				}
				for deadline := time.Now().Add(10 * time.Second); held() != 0; {
					if time.Now().After(deadline) {
						t.Fatalf("pooled buffers outstanding after Close: %d", held())
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
