package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/nicsim"
	"repro/internal/transport"
	"repro/internal/transport/loopback"
	"repro/internal/transport/udp"
	"repro/internal/types"
)

// §4.1 at scale (docs/PERF.md §7): per-process Portals state does not grow
// with the job, so neither should the cost of a message. A swarm is many
// endpoint processes, each a full core.State, on 16 nicsim nodes, and one
// driver that puts to them in a closed loop. Targets are drawn from every
// endpoint (uniform) or from the first few (the hot set). The hot set keeps
// the traffic's working set fixed while the tables grow, so any cost growth
// left in its column would be algorithmic: an O(n) lookup, a contended lock.

const (
	swarmMEs      = 10 // wildcard match entries, each with one descriptor, per endpoint
	swarmPayload  = 64
	swarmInflight = 4096 // unacked puts; at two events each, a quarter of the driver's EQ
)

// Swarm is one built job: the endpoints and the driver that puts to them.
// Only one goroutine at a time drives it.
type Swarm struct {
	MatchEntries int // attached across the endpoints
	Sent, Acked  int // every put so far, warm-ups included, and its ack

	net     transport.Network
	nodes   []*nicsim.Node // the endpoints' nodes, then the driver's
	states  []*core.State  // endpoint i's state
	targets []types.ProcessID
	drv     *core.State
	md, eq  types.Handle
	rnd     *rand.Rand
}

// NewSwarm builds a swarm of endpoints over fabric: loopback, the engine
// alone, or udp, real datagram sockets under rtscts.
func NewSwarm(fabric string, endpoints int) (_ *Swarm, err error) {
	s := &Swarm{
		states:  make([]*core.State, endpoints),
		targets: make([]types.ProcessID, endpoints),
		rnd:     rand.New(rand.NewSource(1)),
	}
	switch fabric {
	case "loopback":
		s.net = loopback.New()
	case "udp":
		s.net = udp.New()
	default:
		return nil, fmt.Errorf("swarm: unknown fabric %q (loopback or udp)", fabric)
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	nodes := min(16, endpoints)
	limits := types.Limits{MaxMEs: swarmMEs + 1, MaxMDs: swarmMEs + 1, MaxEQs: 1, MaxACEntries: 2, MaxPtlIndex: 1}
	for nid := 1; nid <= nodes; nid++ {
		node, err := nicsim.NewNode(s.net, types.NID(nid), nicsim.Config{Lanes: 1})
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, node)
		procs := make(map[types.PID]*core.State, endpoints/nodes+1)
		for i := nid - 1; i < endpoints; i += nodes {
			self := types.ProcessID{NID: types.NID(nid), PID: types.PID(1 + i/nodes)}
			st := core.NewState(self, limits, nil, nil)
			// One receive buffer per endpoint, shared by its descriptors:
			// every delivery into it happens under the endpoint's portal-0
			// lock, so 10⁶ descriptors need not mean 10⁶ buffers.
			buf := make([]byte, swarmPayload)
			for j := 0; j < swarmMEs; j++ {
				me, err := st.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny},
					types.MatchBits(j), 0, types.Retain, types.After)
				if err == nil {
					_, err = st.MDAttach(me, core.MD{Start: buf, Threshold: types.ThresholdInfinite,
						Options: types.MDOpPut | types.MDManageRemote | types.MDTruncate}, types.Retain)
				}
				if err != nil {
					return nil, fmt.Errorf("swarm: endpoint %d: %w", i, err)
				}
				s.MatchEntries++
			}
			procs[self.PID], s.states[i], s.targets[i] = st, st, self
		}
		// One epoch publication per node: registering a PID at a time
		// copies the node's table each time, O(n²) at 10⁵ endpoints.
		if err := node.AddProcesses(procs); err != nil {
			return nil, err
		}
	}

	drv := types.ProcessID{NID: 10_000, PID: 1}
	node, err := nicsim.NewNode(s.net, drv.NID, nicsim.Config{Lanes: 1})
	if err != nil {
		return nil, err
	}
	s.nodes = append(s.nodes, node)
	s.drv = core.NewState(drv, types.Limits{MaxMEs: 1, MaxMDs: 2, MaxEQs: 1, MaxACEntries: 2, MaxPtlIndex: 1}, nil, nil)
	if err = node.AddProcess(drv.PID, s.drv); err == nil {
		s.eq, err = s.drv.EQAlloc(1 << 15)
	}
	if err == nil {
		s.md, err = s.drv.MDBind(core.MD{Start: make([]byte, swarmPayload),
			Threshold: types.ThresholdInfinite, EQ: s.eq}, types.Retain)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Close stops the swarm's nodes and fabric.
func (s *Swarm) Close() {
	for _, n := range s.nodes {
		n.Close()
	}
	s.net.Close()
}

// Measure returns the cost in ns of a put, timed over msgs puts to the
// first pick endpoints (all of them if there are fewer). The collection and
// the warm-up (a tenth of msgs, at most 20k) before the timed pass keep the
// setup's garbage and cold caches out of it. A put left unacked fails it.
func (s *Swarm) Measure(msgs, pick int) (float64, error) {
	pick = min(pick, len(s.targets))
	runtime.GC()
	if err := s.pass(min(msgs/10, 20_000), pick); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := s.pass(msgs, pick); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(msgs), nil
}

// pass puts msgs times, each to a random match entry of one of the first
// pick endpoints, and returns once every put is acked.
func (s *Swarm) pass(msgs, pick int) error {
	for i := 0; i < msgs; i++ {
		if err := s.settle(swarmInflight - 1); err != nil {
			return err
		}
		tgt, bits := s.targets[s.rnd.Intn(pick)], types.MatchBits(s.rnd.Intn(swarmMEs))
		out, err := s.drv.LendPut(s.md, types.AckReq, tgt, 0, 0, bits, 0)
		if err == nil {
			s.Sent++
			err = s.nodes[len(s.nodes)-1].Send(out)
		}
		if err != nil {
			return fmt.Errorf("swarm: put %d: %w", s.Sent, err)
		}
	}
	return s.settle(0)
}

// settle consumes the driver's events until at most limit puts are
// unacked. A second with no event while more are unacked fails the run.
func (s *Swarm) settle(limit int) error {
	for {
		ev, err := s.drv.EQGet(s.eq)
		if errors.Is(err, types.ErrEQEmpty) {
			if s.Sent-s.Acked <= limit {
				return nil
			}
			ev, err = s.drv.EQPoll(s.eq, time.Second)
		}
		if err != nil && !errors.Is(err, types.ErrEQDropped) { // an overrun marker still carries an event
			return fmt.Errorf("swarm of %d endpoints: %d of %d puts unacked: %w",
				len(s.targets), s.Sent-s.Acked, s.Sent, err)
		}
		if ev.Type == types.EventAck {
			s.Acked++
		}
	}
}
