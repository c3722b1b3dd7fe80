package nicsim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rtscts"
	"repro/internal/transport"
	"repro/internal/transport/loopback"
	"repro/internal/transport/simnet"
	"repro/internal/transport/tcp"
	"repro/internal/transport/udp"
	"repro/internal/types"
)

func TestLaneConfigDefaults(t *testing.T) {
	net := loopback.New()
	defer net.Close()
	n, err := NewNode(net, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Lanes(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default lanes = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	n3, err := NewNode(net, 2, Config{Lanes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer n3.Close()
	if got := n3.Lanes(); got != 3 {
		t.Errorf("lanes = %d, want 3", got)
	}
}

func TestLaneIndexFlowAffinity(t *testing.T) {
	const lanes = 4
	used := make(map[int]bool)
	for src := types.NID(1); src <= 8; src++ {
		for pid := types.PID(1); pid <= 8; pid++ {
			l := laneIndex(src, pid, lanes)
			if l < 0 || l >= lanes {
				t.Fatalf("laneIndex(%d,%d) = %d out of range", src, pid, l)
			}
			// The same flow must always land on the same lane — this is the
			// entire §4.1 ordering argument.
			for i := 0; i < 10; i++ {
				if laneIndex(src, pid, lanes) != l {
					t.Fatalf("laneIndex(%d,%d) unstable", src, pid)
				}
			}
			used[l] = true
		}
	}
	if len(used) < 2 {
		t.Errorf("64 flows all hashed to one lane of %d — hash is degenerate", lanes)
	}
}

func TestMultiLanePutsDeliver(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			n1, _, s1, s2 := twoNodes(t, Config{Lanes: lanes})
			const msgs = 64
			buf := make([]byte, 8)
			eq, err := s2.EQAlloc(msgs + 8)
			if err != nil {
				t.Fatal(err)
			}
			me, err := s2.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}, 5, 0, types.Retain, types.After)
			if err != nil {
				t.Fatal(err)
			}
			// Remote-managed offset: every put lands at offset 0, so the
			// buffer never fills no matter how many messages flow through.
			if _, err := s2.MDAttach(me, core.MD{Start: buf, Threshold: types.ThresholdInfinite, Options: types.MDOpPut | types.MDManageRemote, EQ: eq}, types.Retain); err != nil {
				t.Fatal(err)
			}
			src, err := s1.MDBind(core.MD{Start: []byte("multi"), Threshold: types.ThresholdInfinite}, types.Retain)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < msgs; i++ {
				out, err := s1.StartPut(src, types.NoAckReq, types.ProcessID{NID: 2, PID: 20}, 0, 0, 5, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := n1.Send(out); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < msgs; i++ {
				if _, err := s2.EQPoll(eq, 5*time.Second); err != nil {
					t.Fatalf("event %d/%d: %v", i, msgs, err)
				}
			}
			if string(buf[:5]) != "multi" {
				t.Errorf("buf = %q", buf[:5])
			}
		})
	}
}

// TestCloseDrainsLanes closes a node while senders are still pushing
// traffic at it: Close must return (workers join, no deadlock), nothing may
// panic (no send on closed channel, no handler after Close), and every
// message caught in flight — in a transport queue, in a group being sorted,
// on a lane — must give its pooled buffer back. Lanes=1 tears down with no
// workers; tcp feeds the node from one goroutine per connection, simnet
// from one per source link, udp from its read loop.
func TestCloseDrainsLanes(t *testing.T) {
	for _, f := range []struct {
		name string
		new  func() transport.Network
	}{
		{"loopback", func() transport.Network { return loopback.New() }},
		{"tcp", func() transport.Network { return tcp.New() }},
		{"simnet+rtscts", func() transport.Network {
			return rtscts.NewNetwork(simnet.New(simnet.Instant()), rtscts.Config{})
		}},
		{"udp", func() transport.Network { return udp.New() }},
	} {
		for _, lanes := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/lanes=%d", f.name, lanes), func(t *testing.T) {
				closeUnderFire(t, f.new(), lanes)
			})
		}
	}
}

func closeUnderFire(t *testing.T, net transport.Network, lanes int) {
	start := outstanding()
	defer net.Close()
	n1, err := NewNode(net, 1, Config{Lanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := NewNode(net, 2, Config{Lanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	s1 := core.NewState(types.ProcessID{NID: 1, PID: 10}, types.Limits{}, nil, nil)
	s2 := core.NewState(types.ProcessID{NID: 2, PID: 20}, types.Limits{}, nil, nil)
	if err := n1.AddProcess(10, s1); err != nil {
		t.Fatal(err)
	}
	if err := n2.AddProcess(20, s2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	postRecv(t, s2, buf, 0)

	src, err := s1.MDBind(core.MD{Start: []byte("storm"), Threshold: types.ThresholdInfinite}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, err := s1.StartPut(src, types.NoAckReq, types.ProcessID{NID: 2, PID: 20}, 0, 0, 0, 0)
				if err != nil {
					return
				}
				if err := n1.Send(out); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let traffic build up in the lanes
	done := make(chan error, 1)
	go func() { done <- n2.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Close deadlocked with traffic in flight")
	}
	close(stop)
	wg.Wait()
	if err := n1.Close(); err != nil {
		t.Error(err)
	}
	if err := net.Close(); err != nil {
		t.Error(err)
	}
	// The packet fabrics' link and sender goroutines let go of what they
	// still hold on their own time.
	await(t, "pooled buffers to come back", func() bool { return outstanding() == start })
}
