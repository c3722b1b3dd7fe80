package rtscts

import (
	"repro/internal/obs/metrics"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// Network adapts a simnet fabric plus this reliability layer to the
// generic transport.Network interface, so the Portals runtime can run the
// full Myrinet-analogue stack (simnet → rtscts → Portals) wherever it
// would use loopback or TCP.
type Network struct {
	sim *simnet.Network
	cfg Config
}

// NewNetwork wraps an existing fabric. The fabric's lifetime is owned by
// the returned Network: closing it closes the fabric.
func NewNetwork(sim *simnet.Network, cfg Config) *Network {
	return &Network{sim: sim, cfg: cfg}
}

// Sim exposes the underlying fabric (for fault-injection stats in tests).
func (n *Network) Sim() *simnet.Network { return n.sim }

// RegisterMetrics exposes the underlying fabric's counters. Per-node
// reliability counters register through each attachment's Conn (the
// delivery engine delegates to its endpoint), so they are not repeated
// here.
func (n *Network) RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	n.sim.RegisterMetrics(r, ls)
}

// Attach is AttachBatch for a borrowing handler.
func (n *Network) Attach(nid types.NID, h transport.Handler) (transport.Endpoint, error) {
	return n.AttachBatch(nid, transport.Borrow(h))
}

// AttachBatch registers a node with reliability on top of the fabric: each
// reassembled message reaches bh in the pooled buffer it was reassembled
// in, so the delivery engine queues it onto a lane without copying.
func (n *Network) AttachBatch(nid types.NID, bh transport.BatchHandler) (transport.Endpoint, error) {
	return Attach(simPacketNetwork{n.sim}, nid, n.cfg, bh)
}

// Close tears down the fabric.
func (n *Network) Close() error { return n.sim.Close() }
