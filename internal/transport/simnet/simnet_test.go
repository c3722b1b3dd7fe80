package simnet

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/bufpool/pooltest"
	"repro/internal/types"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

type sink struct {
	mu   sync.Mutex
	pkts []string
}

func (s *sink) handler(src types.NID, hdr, payload []byte) {
	s.mu.Lock()
	s.pkts = append(s.pkts, string(hdr)+string(payload))
	s.mu.Unlock()
}

// sendBody sends hdr and a payload out of a pooled buffer, as every sender of
// a payload must, and gives up its own reference at once: from there on the
// link's reference is the only thing keeping the bytes.
func sendBody(ep *Endpoint, dst types.NID, hdr, payload []byte) error {
	buf := bufpool.Get(len(payload))
	defer buf.Release()
	copy(buf.Bytes(), payload)
	return ep.SendPacket(dst, hdr, buf.Bytes(), buf)
}

func (s *sink) got() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.pkts...)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInstantDelivery(t *testing.T) {
	n := New(Instant())
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		// Header and payload arrive together, the payload out of a buffer
		// its sender has already let go of.
		pkt := []byte(fmt.Sprintf("%03d", i))
		if err := sendBody(a, 2, pkt[:1], pkt[1:]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(s.got()) == 100 })
	for i, p := range s.got() {
		if p != fmt.Sprintf("%03d", i) {
			t.Fatalf("packet %d = %q (out of order on clean fabric)", i, p)
		}
	}
	if n.Stats().Delivered.Load() != 100 || n.Stats().Lost.Load() != 0 {
		t.Errorf("stats: %+v", n.Stats())
	}
}

func TestMTUEnforced(t *testing.T) {
	n := New(Config{MTU: 64})
	defer n.Close()
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	held := pooltest.Baseline(t)
	if err := sendBody(a, 2, make([]byte, 20), make([]byte, 45)); err == nil {
		t.Error("oversized packet accepted")
	}
	// A packet carries its header inline and its payload by reference: a
	// header too long for the one, and a payload with nothing to take a
	// reference to, are refused as loudly.
	if err := a.SendPacket(2, make([]byte, MaxHeader+1), nil, nil); err == nil {
		t.Errorf("a %d-byte header accepted", MaxHeader+1)
	}
	if err := a.SendPacket(2, make([]byte, 20), make([]byte, 44), nil); err == nil {
		t.Error("a payload without an owner accepted")
	}
	if got := n.Stats().Sent.Load(); got != 0 {
		t.Errorf("%d refused packets counted as sent", got)
	}
	if err := sendBody(a, 1, make([]byte, 20), make([]byte, 44)); err != nil {
		t.Errorf("MTU-sized packet rejected: %v", err)
	}
	waitFor(t, func() bool { return n.Stats().Delivered.Load() == 1 && held() == 0 })
}

func TestLossInjection(t *testing.T) {
	n := New(Config{MTU: 64, LossRate: 0.5, Seed: 7})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	const count = 400
	for i := 0; i < count; i++ {
		if err := a.SendPacket(2, []byte{byte(i)}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		return n.Stats().Delivered.Load()+n.Stats().Lost.Load() == count
	})
	lost := n.Stats().Lost.Load()
	if lost < count/4 || lost > 3*count/4 {
		t.Errorf("lost %d of %d with 50%% loss", lost, count)
	}
}

func TestDuplicationInjection(t *testing.T) {
	n := New(Config{MTU: 64, DupRate: 1.0, Seed: 1})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.SendPacket(2, []byte{byte(i)}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(s.got()) == 20 })
	if n.Stats().Duplicated.Load() != 10 {
		t.Errorf("dups = %d, want 10", n.Stats().Duplicated.Load())
	}
}

func TestReorderInjection(t *testing.T) {
	n := New(Config{MTU: 64, ReorderRate: 0.5, Seed: 3})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.SendPacket(2, []byte{byte(i)}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return n.Stats().Reordered.Load() > 0 && len(s.got()) >= count-1 })
	// Verify at least one inversion actually reached the receiver.
	inversions := 0
	prev := -1
	for _, p := range s.got() {
		v := int([]byte(p)[0])
		if v < prev {
			inversions++
		}
		prev = v
	}
	if inversions == 0 {
		t.Error("no inversions observed despite reorder injection")
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := New(Config{MTU: 64, Latency: 30 * time.Millisecond})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.SendPacket(2, []byte("x"), nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(s.got()) == 1 })
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("delivered after %v, want ≥ ~30ms", d)
	}
}

func TestBandwidthPacing(t *testing.T) {
	// 1 MB at 10 MB/s should take ~100 ms.
	n := New(Config{MTU: 65536, Bandwidth: 10e6})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const packets = 16 // 16 × 64 KB = 1 MB
	for i := 0; i < packets; i++ {
		if err := sendBody(a, 2, nil, make([]byte, 65536)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(s.got()) == packets })
	d := time.Since(start)
	if d < 70*time.Millisecond {
		t.Errorf("1 MB at 10 MB/s delivered in %v — pacing not applied", d)
	}
	if d > 500*time.Millisecond {
		t.Errorf("pacing far too slow: %v", d)
	}
}

func TestTailDrop(t *testing.T) {
	// A slow link with a tiny queue must tail-drop under a burst.
	n := New(Config{MTU: 65536, Bandwidth: 1e6, QueueCap: 2})
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := sendBody(a, 2, nil, make([]byte, 32768)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		st := n.Stats()
		return st.Delivered.Load()+st.Lost.Load() == 50
	})
	if n.Stats().TailDrops.Load() == 0 {
		t.Error("no tail drops under burst on a bounded queue")
	}
}

func TestDetachedDestination(t *testing.T) {
	n := New(Instant())
	defer n.Close()
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	// Destination never attached: packet vanishes (counted lost), like a
	// real fabric. No error to the sender.
	if err := a.SendPacket(9, []byte("x"), nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return n.Stats().Lost.Load() == 1 })
}

func TestCloseEndpointStopsDelivery(t *testing.T) {
	n := New(Instant())
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(2, s.handler)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendPacket(2, []byte("x"), nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return n.Stats().Lost.Load() == 1 })
	if len(s.got()) != 0 {
		t.Error("delivery to closed endpoint")
	}
	if err := b.SendPacket(1, []byte("x"), nil, nil); !errors.Is(err, types.ErrClosed) {
		t.Errorf("send from closed endpoint = %v", err)
	}
}

func TestNetworkCloseIdempotent(t *testing.T) {
	n := New(Instant())
	if _, err := n.Attach(1, func(types.NID, []byte, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, func(types.NID, []byte, []byte) {}); !errors.Is(err, types.ErrClosed) {
		t.Errorf("attach after close = %v", err)
	}
}

func TestPerPairIsolation(t *testing.T) {
	// Packets between different pairs must not block each other: a slow
	// bulk transfer 1→2 must not delay 3→4 on an uncongested fabric.
	n := New(Config{MTU: 65536, Bandwidth: 2e6})
	defer n.Close()
	var bulk, small sink
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, bulk.handler); err != nil {
		t.Fatal(err)
	}
	c, err := n.Attach(3, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(4, small.handler); err != nil {
		t.Fatal(err)
	}
	// 1 MB bulk at 2 MB/s ≈ 500 ms of occupancy on link 1→2.
	for i := 0; i < 16; i++ {
		if err := sendBody(a, 2, nil, make([]byte, 65536)); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := c.SendPacket(4, []byte("quick"), nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(small.got()) == 1 })
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("independent pair delayed %v by bulk traffic", d)
	}
}

// Reproducibility: the same seed must produce the same fault pattern —
// the property every "repro" experiment in this repository leans on.
func TestSeedDeterminism(t *testing.T) {
	run := func() (delivered, lost int64) {
		n := New(Config{MTU: 64, LossRate: 0.3, Seed: 1234})
		defer n.Close()
		var s sink
		a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach(2, s.handler); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := a.SendPacket(2, []byte{byte(i)}, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, func() bool {
			return n.Stats().Delivered.Load()+n.Stats().Lost.Load() == 200
		})
		return n.Stats().Delivered.Load(), n.Stats().Lost.Load()
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Errorf("same seed diverged: %d/%d vs %d/%d", d1, l1, d2, l2)
	}
	if l1 == 0 {
		t.Error("no losses at 30% rate")
	}
}

// Each link draws its faults from its own generator, so with traffic in both
// directions at once (data one way, acks the other) what a link delivers —
// which packets, how many times, in what order — is a function of the seed,
// not of how the two links' goroutines interleave. Loss with duplication and
// reordering are run apart so that each run has an exact end: every packet
// accounted for, or every numbered packet pushed past the reorder buffer by
// a trailer that nothing can lose.
func TestSeedDeterminismBothDirections(t *testing.T) {
	const count = 500
	trailer := []byte{0xff, 0xff}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"loss+dup", Config{MTU: 64, LossRate: 0.2, DupRate: 0.1, Seed: 99}},
		{"reorder", Config{MTU: 64, ReorderRate: 0.3, Seed: 99}},
	} {
		run := func() (seqs [2][]int) {
			n := New(tc.cfg)
			defer n.Close()
			var sinks [2]sink
			var eps [2]*Endpoint
			for i := range eps {
				ep, err := n.Attach(types.NID(i+1), sinks[i].handler)
				if err != nil {
					t.Fatal(err)
				}
				eps[i] = ep
			}
			var wg sync.WaitGroup
			for i := range eps {
				wg.Add(1)
				go func(from *Endpoint, to types.NID) {
					defer wg.Done()
					for k := 0; k < count; k++ {
						if err := from.SendPacket(to, []byte{byte(k >> 8), byte(k)}, nil, nil); err != nil {
							t.Error(err)
						}
					}
					if tc.cfg.ReorderRate > 0 {
						if err := from.SendPacket(to, trailer, nil, nil); err != nil {
							t.Error(err)
						}
					}
				}(eps[i], types.NID(2-i))
			}
			wg.Wait()
			numbered := func(s *sink) (out []int) {
				for _, p := range s.got() {
					if p != string(trailer) {
						out = append(out, int(p[0])<<8|int(p[1]))
					}
				}
				return out
			}
			waitFor(t, func() bool {
				if tc.cfg.ReorderRate > 0 {
					return len(numbered(&sinks[0])) == count && len(numbered(&sinks[1])) == count
				}
				st := n.Stats()
				return st.Delivered.Load()+st.Lost.Load() == st.Sent.Load()+st.Duplicated.Load()
			})
			return [2][]int{numbered(&sinks[0]), numbered(&sinks[1])}
		}
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				first := run()
				for r := 1; r < 5; r++ {
					again := run()
					for dir := range first {
						if !slices.Equal(first[dir], again[dir]) {
							t.Fatalf("run %d, link into node %d: same seed delivered %s, first run %s",
								r, dir+1, tally(again[dir], count), tally(first[dir], count))
						}
					}
				}
				for dir := range first {
					if slices.Equal(first[dir], identity(count)) {
						t.Errorf("link into node %d carried no faults", dir+1)
					}
				}
				if slices.Equal(first[0], first[1]) {
					t.Error("both links drew the same schedule")
				}
			})
		}
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// tally summarizes what one link delivered of packets 0..count-1.
func tally(seq []int, count int) string {
	seen := make(map[int]bool)
	inversions, prev := 0, -1
	for _, v := range seq {
		seen[v] = true
		if v < prev {
			inversions++
		}
		prev = v
	}
	return fmt.Sprintf("[delivered %d lost %d duplicated %d reordered %d]",
		len(seq), count-len(seen), len(seq)-len(seen), inversions)
}

// A link caches its destination endpoint; the cache must not outlive
// Endpoint.Close. Packets sent while the NID is detached are lost, and
// packets sent after it re-attaches reach the new endpoint, not the old.
func TestReattachMidStream(t *testing.T) {
	n := New(Instant())
	defer n.Close()
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	var first, second sink
	b, err := n.Attach(2, first.handler)
	if err != nil {
		t.Fatal(err)
	}
	send := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := a.SendPacket(2, []byte{byte(i)}, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(0, 10)
	waitFor(t, func() bool { return len(first.got()) == 10 })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	send(10, 15)
	waitFor(t, func() bool { return n.Stats().Lost.Load() == 5 })
	if _, err := n.Attach(2, second.handler); err != nil {
		t.Fatal(err)
	}
	send(15, 25)
	waitFor(t, func() bool { return len(second.got()) == 10 })
	for i, p := range second.got() {
		if p[0] != byte(15+i) {
			t.Fatalf("new endpoint's packet %d = %d, want %d", i, p[0], 15+i)
		}
	}
	if got := len(first.got()); got != 10 {
		t.Errorf("closed endpoint saw %d packets, want the 10 sent before it closed", got)
	}
}

// burstLog records handler calls ('p') and flushes ('f') in order.
type burstLog struct {
	mu     sync.Mutex
	events []byte
}

func (b *burstLog) add(e byte) {
	b.mu.Lock()
	b.events = append(b.events, e)
	b.mu.Unlock()
}

func (b *burstLog) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.events)
}

// flush runs once per drained batch, after its last packet: a link that
// finds k packets waiting hands over all k and then flushes once.
func TestFlushOncePerBatch(t *testing.T) {
	n := New(Instant())
	defer n.Close()
	var log burstLog
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AttachBurst(2, func(types.NID, []byte, []byte) {
		log.add('p')
		once.Do(func() { // hold the link inside its first delivery while a batch queues up
			close(entered)
			<-release
		})
	}, func() { log.add('f') }); err != nil {
		t.Fatal(err)
	}
	const batch = 7
	for i := 0; i < 1+batch; i++ {
		if i == 1 {
			<-entered
		}
		if err := a.SendPacket(2, []byte{byte(i)}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	want := "pf" + strings.Repeat("p", batch) + "f"
	waitFor(t, func() bool { return len(log.String()) >= len(want) })
	if got := log.String(); got != want {
		t.Fatalf("events %q, want %q", got, want)
	}
}

// An idle wire ends a burst: packets the link must wait for are not held
// back behind one flush at the end of the batch they were queued in.
func TestFlushBeforeWaitingForTheWire(t *testing.T) {
	// Three 20 KB packets at 1 MB/s arrive 20 ms apart.
	n := New(Config{MTU: 65536, Bandwidth: 1e6})
	defer n.Close()
	var log burstLog
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AttachBurst(2, func(types.NID, []byte, []byte) { log.add('p') }, func() { log.add('f') }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sendBody(a, 2, nil, make([]byte, 20000)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return strings.Count(log.String(), "p") == 3 && strings.HasSuffix(log.String(), "f") })
	if got := log.String(); got != "pfpfpf" {
		t.Fatalf("events %q, want a flush after each spaced packet (\"pfpfpf\")", got)
	}
}

// A reorder hold lasts until the next packet on the link, which may never
// come: behind a put's last fragment the link can stay idle. A held packet
// whose payload is lent memory — a put's body, whose return completes the
// put — is therefore held as a copy: the loan comes back at once, and the
// packet, delivered late, carries the bytes first sent.
func TestReorderHoldReturnsALoan(t *testing.T) {
	n := New(Config{MTU: 64, ReorderRate: 1, Seed: 1}) // the first packet of each pair is held
	defer n.Close()
	var s sink
	a, err := n.Attach(1, func(types.NID, []byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(2, s.handler); err != nil {
		t.Fatal(err)
	}
	mem := []byte("first sent")
	returned := make(chan struct{}, 1)
	var loan bufpool.Buf
	body := loan.Lend(mem, nil, func() { returned <- struct{}{} })
	if err := a.SendPacket(2, []byte{'1'}, mem, body); err != nil {
		t.Fatal(err)
	}
	body.Release()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("the reorder hold kept a lent payload while the link was idle")
	}
	copy(mem, "rewritten!") // the memory is its lender's again
	if got := s.got(); len(got) != 0 {
		t.Fatalf("delivered %q before its successor passed", got)
	}
	if err := a.SendPacket(2, []byte{'2'}, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(s.got()) == 2 })
	if got := s.got(); !slices.Equal(got, []string{"2", "1first sent"}) {
		t.Errorf("delivered %q, want the successor, then the held packet as first sent", got)
	}
}
