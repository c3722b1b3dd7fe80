package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool/pooltest"
	"repro/internal/rtscts"
	"repro/internal/transport/simnet"
	"repro/portals"
)

// newMachine builds a machine over fab whose teardown is checked when the
// test ends (portals.Machine.CheckTeardown): no RCU pin open, no put body
// still lent, no arena entry the tables no longer reach.
func newMachine(t testing.TB, fab portals.Fabric) *portals.Machine {
	t.Helper()
	m := portals.NewMachine(fab)
	t.Cleanup(func() {
		if err := m.CheckTeardown(); err != nil {
			t.Error(err)
		}
	})
	return m
}

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

func worldOn(t *testing.T, fab portals.Fabric, n int, cfg Config) *World {
	t.Helper()
	m := newMachine(t, fab)
	w, err := NewWorld(m, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func world(t *testing.T, n int) *World {
	return worldOn(t, portals.Loopback(), n, Config{})
}

func TestBlockingSendRecvEager(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send([]byte("eager hello"), 1, 7)
		}
		buf := make([]byte, 32)
		st, err := c.Recv(buf, 0, 7)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 7 || st.Count != 11 {
			return fmt.Errorf("status %+v", st)
		}
		if string(buf[:11]) != "eager hello" {
			return fmt.Errorf("data %q", buf[:11])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLongProtocolPrePosted(t *testing.T) {
	w := worldOn(t, portals.Loopback(), 2, Config{EagerLimit: 1024})
	payload := make([]byte, 100*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			// Give rank 1 time to pre-post, then send long.
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Send(payload, 1, 3)
		}
		buf := make([]byte, len(payload))
		req, err := c.Irecv(buf, 0, 3)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		st, err := req.Wait()
		if err != nil {
			return err
		}
		if st.Count != len(payload) || !bytes.Equal(buf, payload) {
			return fmt.Errorf("long pre-posted corrupted (count %d)", st.Count)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLongProtocolUnexpected(t *testing.T) {
	w := worldOn(t, portals.Loopback(), 2, Config{EagerLimit: 512})
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i ^ (i >> 7))
	}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			// Send FIRST so it is unexpected, then barrier-free delay on
			// the receiver guarantees arrival order.
			req, err := c.Isend(payload, 1, 9)
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		time.Sleep(100 * time.Millisecond) // let the message land unexpected
		buf := make([]byte, len(payload))
		st, err := c.Recv(buf, 0, 9)
		if err != nil {
			return err
		}
		if st.Count != len(payload) || !bytes.Equal(buf, payload) {
			return fmt.Errorf("long unexpected corrupted (count %d)", st.Count)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEagerUnexpected(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send([]byte("surprise"), 1, 5)
		}
		time.Sleep(50 * time.Millisecond)
		buf := make([]byte, 16)
		st, err := c.Recv(buf, 0, 5)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "surprise" {
			return fmt.Errorf("got %q", buf[:st.Count])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingSameEnvelope(t *testing.T) {
	// MPI guarantees matching in send order for identical envelopes.
	w := world(t, 2)
	const count = 100
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < count; i++ {
				if err := c.Send([]byte(fmt.Sprintf("m%03d", i)), 1, 1); err != nil {
					return err
				}
			}
			return nil
		}
		// Delay so some arrive unexpected, then receive interleaved.
		time.Sleep(30 * time.Millisecond)
		buf := make([]byte, 8)
		for i := 0; i < count; i++ {
			st, err := c.Recv(buf, 0, 1)
			if err != nil {
				return err
			}
			if want := fmt.Sprintf("m%03d", i); string(buf[:st.Count]) != want {
				return fmt.Errorf("message %d = %q, want %q", i, buf[:st.Count], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := world(t, 3)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send([]byte{byte(c.Rank())}, 0, 10+c.Rank())
		}
		seen := map[int]bool{}
		buf := make([]byte, 4)
		for i := 0; i < 2; i++ {
			st, err := c.Recv(buf, AnySource, AnyTag)
			if err != nil {
				return err
			}
			if st.Tag != 10+st.Source || int(buf[0]) != st.Source {
				return fmt.Errorf("status %+v buf %v", st, buf[0])
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("sources seen: %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send([]byte("tag-A"), 1, 100); err != nil {
				return err
			}
			return c.Send([]byte("tag-B"), 1, 200)
		}
		time.Sleep(30 * time.Millisecond) // both land unexpected
		buf := make([]byte, 8)
		// Receive tag 200 FIRST, then 100.
		st, err := c.Recv(buf, 0, 200)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "tag-B" {
			return fmt.Errorf("tag 200 = %q", buf[:st.Count])
		}
		st, err = c.Recv(buf, 0, 100)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "tag-A" {
			return fmt.Errorf("tag 100 = %q", buf[:st.Count])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedReceive(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send([]byte("0123456789"), 1, 1)
		}
		buf := make([]byte, 4)
		st, err := c.Recv(buf, 0, 1)
		if err != nil {
			return err
		}
		if st.Count != 4 || string(buf) != "0123" {
			return fmt.Errorf("truncated recv: %+v %q", st, buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLongTruncatedPrePosted(t *testing.T) {
	// Long message into a smaller pre-posted buffer: truncated delivery +
	// cleanup get so the sender completes too.
	w := worldOn(t, portals.Loopback(), 2, Config{EagerLimit: 256})
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i)
	}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Send(payload, 1, 2)
		}
		buf := make([]byte, 1000)
		req, err := c.Irecv(buf, 0, 2)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		st, err := req.Wait()
		if err != nil {
			return err
		}
		if st.Count != 1000 || !bytes.Equal(buf, payload[:1000]) {
			return fmt.Errorf("truncated long: %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyUnexpectedRotation(t *testing.T) {
	// Enough unexpected traffic to force overflow-buffer rotation.
	w := worldOn(t, portals.Loopback(), 2, Config{
		EagerLimit: 4096, OverflowBuffers: 2, OverflowSize: 16 * 1024,
	})
	// 16 batches of 4 × 2 KB = 128 KB stream through a 32 KB pool. Each
	// batch is explicitly requested ("go" token) and lands unexpected
	// (the receiver sleeps before posting receives), so the pool must
	// rotate many times. A batch (8 KB) always fits the pool, which is
	// the §4.1 contract: unexpected space is sized to application
	// behaviour, and the application must not outrun it.
	const batches, perBatch = 16, 4
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			msg := make([]byte, 2048)
			token := make([]byte, 1)
			for b := 0; b < batches; b++ {
				if _, err := c.Recv(token, 1, 99); err != nil {
					return err
				}
				for j := 0; j < perBatch; j++ {
					msg[0] = byte(b*perBatch + j)
					if err := c.Send(msg, 1, 1); err != nil {
						return err
					}
				}
			}
			return nil
		}
		buf := make([]byte, 2048)
		for b := 0; b < batches; b++ {
			if err := c.Send([]byte{1}, 0, 99); err != nil {
				return err
			}
			time.Sleep(10 * time.Millisecond) // let the batch land unexpected
			for j := 0; j < perBatch; j++ {
				i := b*perBatch + j
				st, err := c.Recv(buf, 0, 1)
				if err != nil {
					return err
				}
				if st.Count != 2048 || buf[0] != byte(i) {
					return fmt.Errorf("message %d: count %d first %d", i, st.Count, buf[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		peer := 1 - c.Rank()
		out := []byte{byte(c.Rank() + 100)}
		in := make([]byte, 1)
		st, err := c.Sendrecv(out, peer, 5, in, peer, 5)
		if err != nil {
			return err
		}
		if st.Count != 1 || in[0] != byte(peer+100) {
			return fmt.Errorf("exchange got %d", in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendMultipleOutstanding(t *testing.T) {
	w := world(t, 2)
	const n = 20
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			reqs := make([]*Request, n)
			for i := range reqs {
				var err error
				reqs[i], err = c.Isend([]byte{byte(i)}, 1, i)
				if err != nil {
					return err
				}
			}
			return WaitAll(reqs...)
		}
		// Receive in reverse tag order.
		buf := make([]byte, 1)
		for i := n - 1; i >= 0; i-- {
			st, err := c.Recv(buf, 0, i)
			if err != nil {
				return err
			}
			if buf[0] != byte(i) || st.Tag != i {
				return fmt.Errorf("tag %d got %d", i, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTestNonblocking(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(50 * time.Millisecond)
			return c.Send([]byte("late"), 1, 1)
		}
		buf := make([]byte, 8)
		req, err := c.Irecv(buf, 0, 1)
		if err != nil {
			return err
		}
		done, _, err := req.Test()
		if err != nil {
			return err
		}
		if done {
			return fmt.Errorf("request complete before send")
		}
		for {
			done, st, err := req.Test()
			if err != nil {
				return err
			}
			if done {
				if st.Count != 4 {
					return fmt.Errorf("count %d", st.Count)
				}
				return nil
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			w := world(t, n)
			var order [64]int32
			var idx int32
			err := w.Run(func(c *Comm) error {
				// Everyone enters phase 1, barrier, then phase 2; no
				// phase-2 mark may precede a phase-1 mark.
				order[atomicInc(&idx)-1] = 1
				if err := c.Barrier(); err != nil {
					return err
				}
				order[atomicInc(&idx)-1] = 2
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			phase2 := false
			for i := 0; i < int(idx); i++ {
				if order[i] == 2 {
					phase2 = true
				}
				if phase2 && order[i] == 1 && i < n {
					t.Fatal("phase 1 mark after phase 2 began before all entered")
				}
			}
			// Stronger: first n marks must all be phase 1.
			for i := 0; i < n; i++ {
				if order[i] != 1 {
					t.Fatalf("mark %d = %d, want phase 1", i, order[i])
				}
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for root := 0; root < n; root += 2 {
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				w := world(t, n)
				err := w.Run(func(c *Comm) error {
					buf := make([]byte, 16)
					if c.Rank() == root {
						copy(buf, "broadcast-data!!")
					}
					if err := c.Bcast(buf, root); err != nil {
						return err
					}
					if string(buf) != "broadcast-data!!" {
						return fmt.Errorf("rank %d got %q", c.Rank(), buf)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range []int{2, 4, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			w := world(t, n)
			want := float64(n * (n - 1) / 2) // sum of ranks
			err := w.Run(func(c *Comm) error {
				vec := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
				if err := c.Allreduce(vec, Sum); err != nil {
					return err
				}
				if vec[0] != want || vec[1] != want*10 {
					return fmt.Errorf("rank %d allreduce = %v, want %v", c.Rank(), vec, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReduceMax(t *testing.T) {
	w := world(t, 4)
	err := w.Run(func(c *Comm) error {
		vec := []float64{float64(c.Rank())}
		if err := c.Reduce(vec, Max, 0); err != nil {
			return err
		}
		if c.Rank() == 0 && vec[0] != 3 {
			return fmt.Errorf("max = %v", vec[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	w := world(t, 4)
	err := w.Run(func(c *Comm) error {
		block := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
		var out []byte
		if c.Rank() == 2 {
			out = make([]byte, 8)
		}
		if err := c.Gather(block, out, 2); err != nil {
			return err
		}
		if c.Rank() == 2 {
			want := []byte{0, 0, 1, 2, 2, 4, 3, 6}
			if !bytes.Equal(out, want) {
				return fmt.Errorf("gather = %v, want %v", out, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	w := world(t, 3)
	err := w.Run(func(c *Comm) error {
		send := make([]byte, 3)
		for j := range send {
			send[j] = byte(c.Rank()*10 + j)
		}
		recv := make([]byte, 3)
		if err := c.Alltoall(send, recv, 1); err != nil {
			return err
		}
		for j := range recv {
			if recv[j] != byte(j*10+c.Rank()) {
				return fmt.Errorf("rank %d recv = %v", c.Rank(), recv)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOverSimnet(t *testing.T) {
	w := worldOn(t, portals.SimFabric(simnet.Instant(), rtscts.Config{}), 4, Config{EagerLimit: 2048})
	err := w.Run(func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		// Ring exchange of mixed sizes.
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		for _, size := range []int{16, 5000, 64 * 1024} {
			out := bytes.Repeat([]byte{byte(c.Rank())}, size)
			in := make([]byte, size)
			if _, err := c.Sendrecv(out, next, 1, in, prev, 1); err != nil {
				return err
			}
			if in[0] != byte(prev) || in[size-1] != byte(prev) {
				return fmt.Errorf("ring data wrong for size %d", size)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOverLossyFabric(t *testing.T) {
	sim := simnet.Config{MTU: 1024, LossRate: 0.08, DupRate: 0.04, ReorderRate: 0.04, Seed: 99}
	w := worldOn(t, portals.SimFabric(sim, rtscts.Config{RTO: 15 * time.Millisecond, EagerMax: 2048}),
		2, Config{EagerLimit: 1024})
	payload := make([]byte, 40*1024)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if err := c.Send(payload, 1, i); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, len(payload))
		for i := 0; i < 5; i++ {
			st, err := c.Recv(buf, 0, i)
			if err != nil {
				return err
			}
			if st.Count != len(payload) || !bytes.Equal(buf, payload) {
				return fmt.Errorf("message %d corrupted", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteMessage(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(nil, 1, 4)
		}
		st, err := c.Recv(nil, 0, 4)
		if err != nil {
			return err
		}
		if st.Count != 0 || st.Tag != 4 {
			return fmt.Errorf("status %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		req, err := c.Isend([]byte("self"), 0, 1)
		if err != nil {
			return err
		}
		buf := make([]byte, 8)
		st, err := c.Recv(buf, 0, 1)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "self" {
			return fmt.Errorf("self recv %q", buf[:st.Count])
		}
		_, err = req.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArguments(t *testing.T) {
	w := world(t, 2)
	c := w.Comm(0)
	if _, err := c.Isend(nil, 5, 0); err == nil {
		t.Error("send to out-of-range rank accepted")
	}
	if _, err := c.Isend(nil, 1, -3); err == nil {
		t.Error("negative tag accepted")
	}
	if _, err := c.Irecv(nil, 9, 0); err == nil {
		t.Error("recv from out-of-range rank accepted")
	}
	if err := c.Bcast(nil, 9); err == nil {
		t.Error("bcast with bad root accepted")
	}
}

func atomicInc(p *int32) int32 { return atomic.AddInt32(p, 1) }

// EQ overrun is a documented, detectable failure (completion events were
// lost): the library must surface an error rather than hang or deliver
// silently wrong results.
func TestEQOverrunSurfacesError(t *testing.T) {
	// Tiny EQ, no draining while a burst lands: events overwrite.
	w := worldOn(t, portals.Loopback(), 2, Config{EQSlots: 8, EagerLimit: 1 << 20})
	c0, c1 := w.Comm(0), w.Comm(1)
	for i := 0; i < 64; i++ {
		if _, err := c0.Isend([]byte{byte(i)}, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Give the engine time to land everything (overrunning c1's EQ, and
	// c0's own EQ with send events).
	time.Sleep(50 * time.Millisecond)
	buf := make([]byte, 1)
	req, err := c1.Irecv(buf, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := req.Wait()
	if werr == nil {
		// The first receive may have completed before the overrun was
		// noticed; draining further must hit the error.
		for i := 0; i < 64 && werr == nil; i++ {
			req, err := c1.Irecv(buf, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, werr = req.Wait()
		}
	}
	if werr == nil {
		t.Fatal("EQ overrun went unreported")
	}
	if !strings.Contains(werr.Error(), "overrun") {
		t.Fatalf("unexpected error: %v", werr)
	}
}

// The full MPI stack over the TCP reference transport (real kernel
// sockets, in-process registry): the §3 reference implementation
// carrying the whole protocol suite.
func TestOverTCPFabric(t *testing.T) {
	w := worldOn(t, portals.TCP(), 3, Config{EagerLimit: 2048})
	err := w.Run(func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		for _, size := range []int{32, 50 * 1024} {
			out := bytes.Repeat([]byte{byte(c.Rank() + 1)}, size)
			in := make([]byte, size)
			if _, err := c.Sendrecv(out, next, 1, in, prev, 1); err != nil {
				return err
			}
			if in[0] != byte(prev+1) || in[size-1] != byte(prev+1) {
				return fmt.Errorf("tcp ring wrong for size %d", size)
			}
		}
		v := []float64{float64(c.Rank())}
		if err := c.Allreduce(v, Sum); err != nil {
			return err
		}
		if v[0] != 3 {
			return fmt.Errorf("allreduce over tcp = %v", v[0])
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
