package portals

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/nicsim"
	"repro/internal/obs/metrics"
	"repro/internal/rtscts"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/loopback"
	"repro/internal/transport/simnet"
	"repro/internal/transport/tcp"
	"repro/internal/transport/udp"
	"repro/internal/types"
)

// Fabric selects and configures the network under a Machine.
type Fabric struct {
	build func() transport.Network
	name  string
	nic   nicsim.Config
}

// Name reports which fabric this is ("loopback", "myrinet", "tcp", ...).
func (f Fabric) Name() string { return f.name }

// Loopback is the zero-latency in-process fabric, for tests and examples.
func Loopback() Fabric {
	return Fabric{name: "loopback", build: func() transport.Network { return loopback.New() }}
}

// Myrinet is the simulated Cplant stack: a Myrinet-class packet fabric
// (latency, bandwidth pacing, 4 KB MTU) under the RTS/CTS reliability
// layer. This is the fabric the paper's experiments ran on, in simulation.
func Myrinet() Fabric {
	return SimFabric(simnet.Myrinet(), rtscts.DefaultConfig())
}

// GigE simulates commodity gigabit Ethernet (higher latency, smaller MTU).
func GigE() Fabric {
	return SimFabric(simnet.GigE(), rtscts.DefaultConfig())
}

// SimFabric builds a simulated fabric from explicit simnet and rtscts
// parameters — the knob for fault-injection experiments.
func SimFabric(sim simnet.Config, rel rtscts.Config) Fabric {
	return Fabric{
		name:  "simnet",
		build: func() transport.Network { return rtscts.NewNetwork(simnet.New(sim), rel) },
	}
}

// TCP is the reference implementation over real kernel sockets (§3).
func TCP() Fabric {
	return Fabric{name: "tcp", build: func() transport.Network { return tcp.New() }}
}

// TCPStatic is the reference implementation configured for a genuinely
// distributed run across OS processes or hosts: the local node localNID
// listens at listenAddr, and peers maps every remote NID to its
// host:port. See cmd/ptlnode for a ready-made driver.
func TCPStatic(localNID NID, listenAddr string, peers map[NID]string) Fabric {
	return Fabric{
		name:  "tcp",
		build: func() transport.Network { return tcp.NewStatic(localNID, listenAddr, peers) },
	}
}

// UDP is the connectionless datagram transport over real kernel sockets:
// one socket per node, rtscts reliability (adaptive RTO, fast retransmit,
// dynamic windows) on top, batched sendmmsg/recvmmsg syscalls underneath
// where the platform has them.
func UDP() Fabric {
	return Fabric{name: "udp", build: func() transport.Network { return udp.New() }}
}

// UDPStatic is the UDP fabric configured for a genuinely distributed run
// across OS processes or hosts: the local node localNID binds listenAddr,
// and peers maps every remote NID to its host:port. See cmd/ptlnode
// -transport udp for a ready-made driver.
func UDPStatic(localNID NID, listenAddr string, peers map[NID]string) Fabric {
	return Fabric{
		name:  "udp",
		build: func() transport.Network { return udp.NewStatic(localNID, listenAddr, peers) },
	}
}

// CustomFabric wraps an externally constructed transport under a Machine.
// This is the interposition hook fault-injection harnesses use: build a
// udp.Network yourself, launch the job, then re-Register peer addresses to
// point at lossy relays (internal/transport/udp/proxytest). The Machine
// takes ownership — Machine.Close closes net.
func CustomFabric(name string, net transport.Network) Fabric {
	return Fabric{name: name, build: func() transport.Network { return net }}
}

// WithNIC overrides the node processing model (NIC-offload vs
// host-interrupt) for nodes created on this fabric. Other NIC settings
// (lane count) are left as configured.
func (f Fabric) WithNIC(model NICModel, interruptCost time.Duration) Fabric {
	f.nic.Model = nicsim.Model(model)
	f.nic.InterruptCost = interruptCost
	return f
}

// WithLanes overrides the number of parallel delivery lanes per node
// (docs/PERF.md §5): 0 defaults to GOMAXPROCS, 1 is the serial engine.
// Per-(initiator, target) ordering (§4.1) holds at every lane count.
func (f Fabric) WithLanes(lanes int) Fabric {
	f.nic.Lanes = lanes
	return f
}

// NICModel selects where receive-side protocol processing is charged.
type NICModel uint8

const (
	// NICOffload models the paper's MCP: processing on the NIC, free to
	// the host.
	NICOffload NICModel = NICModel(nicsim.NICOffload)
	// HostInterrupt models the interrupt-driven kernel-module
	// implementation used for the Figure 6 experiment.
	HostInterrupt NICModel = NICModel(nicsim.HostInterrupt)
)

// Machine owns a fabric and the nodes/processes created on it. It plays
// the role of the Cplant runtime environment: identity assignment, node
// bring-up, and teardown.
type Machine struct {
	fabric Fabric
	net    transport.Network

	mu     sync.Mutex
	nodes  map[NID]*nicsim.Node
	nis    []*NI
	closed bool
}

// NewMachine brings up a fabric.
func NewMachine(f Fabric) *Machine {
	return &Machine{fabric: f, net: f.build(), nodes: make(map[NID]*nicsim.Node)}
}

// node returns (creating if needed) the node for a NID.
func (m *Machine) node(nid NID) (*nicsim.Node, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	n, ok := m.nodes[nid]
	if !ok {
		var err error
		// Node bring-up binds a listener (net.Listen) under m.mu. This is
		// NIInit-time control-path setup, serialized on purpose; no
		// message-path code takes m.mu.
		//lint:ignore lockdiscipline control-path node creation; m.mu is never taken on the message path
		n, err = nicsim.NewNode(m.net, nid, m.fabric.nic)
		if err != nil {
			return nil, err
		}
		m.nodes[nid] = n
	}
	return n, nil
}

// NIInit initializes a Portals interface for process (nid, pid) — the
// PtlNIInit call. Limits are negotiated: zero fields take defaults,
// excessive requests are clamped; read the granted values with Limits().
//
// The access-control list comes up per §4.5: entry 0 admits every process
// of the application (here: everything on the machine), entry 1 admits
// system processes (PID 0), all other entries deny.
func (m *Machine) NIInit(nid NID, pid PID, limits Limits) (*NI, error) {
	node, err := m.node(nid)
	if err != nil {
		return nil, err
	}
	self := ProcessID{NID: nid, PID: pid}
	limits = limits.Clamp()
	list := acl.New(limits.MaxACEntries, AnyProcess, ProcessID{NID: NIDAny, PID: 0})
	st := core.NewState(self, limits, list, &stats.Counters{})
	if err := node.AddProcess(pid, st); err != nil {
		return nil, fmt.Errorf("portals: %w", err)
	}
	ni := &NI{machine: m, state: st, node: node, self: self}
	m.mu.Lock()
	m.nis = append(m.nis, ni)
	m.mu.Unlock()
	return ni, nil
}

// LaunchJob initializes n processes, one per node, with NIDs 1..n and
// PID 1 — the common single-process-per-node Cplant configuration. The
// returned slice is indexed by rank.
func (m *Machine) LaunchJob(n int) ([]*NI, error) {
	nis := make([]*NI, 0, n)
	for rank := 0; rank < n; rank++ {
		ni, err := m.NIInit(NID(rank+1), 1, Limits{})
		if err != nil {
			for _, prev := range nis {
				_ = prev.Close() // best-effort unwind; the NIInit error is what matters
			}
			return nil, err
		}
		nis = append(nis, ni)
	}
	return nis, nil
}

// Close tears down every interface, node, and the fabric.
func (m *Machine) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	nis := m.nis
	nodes := make([]*nicsim.Node, 0, len(m.nodes))
	for _, n := range m.nodes {
		nodes = append(nodes, n)
	}
	m.mu.Unlock()
	for _, ni := range nis {
		ni.closeState()
	}
	for _, n := range nodes {
		n.Close()
	}
	return m.net.Close()
}

// CheckTeardown closes the machine and reports, interface by interface, what
// the teardown left behind (core.State.CheckTeardown): an RCU pin still
// open, a put body still lent to the fabric, or an arena entry the tables no
// longer reach. Tests call it once whatever used the machine has stopped.
func (m *Machine) CheckTeardown() error {
	errs := []error{m.Close()}
	m.mu.Lock()
	nis := m.nis
	m.mu.Unlock()
	for _, ni := range nis {
		if err := ni.state.CheckTeardown(); err != nil {
			errs = append(errs, fmt.Errorf("interface %v: %w", ni.self, err))
		}
	}
	return errors.Join(errs...)
}

// RegisterMetrics exposes every layer of this machine through one obs
// registry: the fabric's packet counters, each node's delivery-engine
// counters (which delegate to the node's reliability endpoint when the
// fabric has one), each process's Portals interface counters, and the
// event-queue totals. Everything registered is a view over counters the
// layers already maintain — registration changes nothing on any hot path.
// Calling it again after adding nodes or interfaces replaces the earlier
// series in place, so it is safe to re-register per experiment iteration.
func (m *Machine) RegisterMetrics(r *metrics.Registry) {
	fabric := metrics.L("fabric", m.fabric.name)
	if reg, ok := m.net.(metrics.Registerer); ok {
		reg.RegisterMetrics(r, fabric)
	}
	eventq.RegisterMetrics(r, nil)
	m.mu.Lock()
	nodes := make(map[NID]*nicsim.Node, len(m.nodes))
	for nid, n := range m.nodes {
		nodes[nid] = n
	}
	nis := append([]*NI(nil), m.nis...)
	m.mu.Unlock()
	for nid, n := range nodes {
		n.RegisterMetrics(r, metrics.L("node", strconv.Itoa(int(nid))))
	}
	for _, ni := range nis {
		ni.state.Counters().RegisterMetrics(r, metrics.L(
			"node", strconv.Itoa(int(ni.self.NID)),
			"pid", strconv.Itoa(int(ni.self.PID))))
	}
}

// nodeDrops reports node-level drop counts (bad-target) for tests.
func (m *Machine) nodeDrops(nid NID) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[nid]
	if !ok {
		return 0
	}
	return n.Counters().DroppedFor(types.DropBadTarget)
}
