package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/mpi"
	"repro/internal/rtscts"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/transport/udp"
	"repro/internal/types"
	"repro/portals"
)

// E5 — §4.1: "For many message passing systems, such as VIA, the amount
// of memory required for unexpected messages grows linearly with the
// number of connections. Portals allow for the amount of memory used for
// unexpected message buffers to be based on the needs and behavior of
// the application rather than based simply on the number of processes."
//
// The Portals side is measured on a real communicator; the VIA side is a
// faithful miniature of a VIA endpoint manager: it actually allocates the
// per-connection descriptor rings and receive buffers a VI NIC requires
// pre-posted per peer, and reports what it allocated.

// MemScalePoint is one row of the experiment.
type MemScalePoint struct {
	Peers        int
	PortalsBytes int
	VIABytes     int
}

// viaEndpoint models one VI connection's receive-side commitment: a
// descriptor ring plus credits × eager-buffer pre-posted receives. VIA
// has no matching at the NIC, so every connection must keep its own
// buffers posted; none can be shared.
type viaEndpoint struct {
	descriptors []byte
	buffers     [][]byte
}

// viaConnectionTable allocates endpoints for n peers, the way a VIA-based
// MPI sets up its fully-connected job, and reports the receive-side bytes
// committed.
func viaConnectionTable(peers, credits, bufSize int) int {
	const descSize = 64 // one VI descriptor
	total := 0
	eps := make([]*viaEndpoint, peers)
	for i := range eps {
		ep := &viaEndpoint{descriptors: make([]byte, credits*descSize)}
		for j := 0; j < credits; j++ {
			ep.buffers = append(ep.buffers, make([]byte, bufSize))
		}
		eps[i] = ep
		total += len(ep.descriptors)
		for _, b := range ep.buffers {
			total += len(b)
		}
	}
	return total
}

// MemScale measures unexpected-message memory for a job of n processes
// under both models. credits and bufSize parameterize the VIA side
// (typical MPI-over-VIA: 8–32 credits of eager-size buffers per peer);
// the Portals side is read off a real communicator, whose overflow pool
// is set by application policy (mpi.Config), not by n.
func MemScale(m *portals.Machine, n int, mpiCfg mpi.Config, credits, bufSize int) (MemScalePoint, error) {
	w, err := mpi.NewWorld(m, n, mpiCfg)
	if err != nil {
		return MemScalePoint{}, err
	}
	return MemScalePoint{
		Peers:        n - 1,
		PortalsBytes: w.Comm(0).UnexpectedBytes(),
		VIABytes:     viaConnectionTable(n-1, credits, bufSize),
	}, nil
}

// The fabric's side of E5. Portals keeps no per-peer state of its own, but
// a reliable fabric does: each ordered pair of nodes that has exchanged a
// message holds a stream — the rtscts sender and receiver, and whatever the
// packet fabric keeps per destination (on simnet, a link and its goroutine).
// StreamCost counts what one message per pair leaves behind once every
// window has drained: the per-connection cost the paper holds against VIA,
// paid here for every peer ever contacted.

// StreamPoint is the idle cost of one stream at a node count.
type StreamPoint struct {
	Nodes, Streams      int
	HeapPerStream       float64 // bytes of live heap
	GoroutinesPerStream float64
}

// StreamCost attaches n nodes to fabric — "simnet" (zero-wire simnet under
// rtscts) or "udp" (kernel sockets under rtscts) — and has every node send
// one 8-byte message to every other. Once all n(n-1) messages are delivered
// and every window has drained, the heap (HeapAlloc after two collections)
// and the goroutines added since the nodes were attached are divided by the
// n(n-1) streams the traffic opened.
func StreamCost(fabric string, n int) (p StreamPoint, err error) {
	var net transport.Network
	switch fabric {
	case "simnet":
		net = rtscts.NewNetwork(simnet.New(simnet.Instant()), rtscts.DefaultConfig())
	case "udp":
		net = udp.New()
	default:
		return p, fmt.Errorf("memscale: unknown fabric %q (simnet or udp)", fabric)
	}
	var delivered atomic.Int64
	conns := make([]*rtscts.Conn, 0, n)
	defer func() {
		errs := []error{err}
		for _, c := range conns {
			errs = append(errs, c.Close())
		}
		err = errors.Join(append(errs, net.Close())...)
	}()
	for nid := 1; nid <= n; nid++ {
		ep, err := net.AttachBatch(types.NID(nid), transport.Borrow(func(types.NID, []byte) { delivered.Add(1) }))
		if err != nil {
			return p, err
		}
		conns = append(conns, ep.(*rtscts.Conn))
	}
	heap, goroutines := idleFootprint()
	msg := make([]byte, 8)
	for i, c := range conns {
		for j := range conns {
			if i == j {
				continue
			}
			if err := c.Send(types.NID(j+1), msg); err != nil {
				return p, err
			}
		}
	}
	p = StreamPoint{Nodes: n, Streams: n * (n - 1)}
	drained := func() bool {
		if delivered.Load() != int64(p.Streams) {
			return false
		}
		for i, c := range conns {
			for j := range conns {
				if st, _ := c.Peer(types.NID(j + 1)); i != j && st.InFlight != 0 {
					return false
				}
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !drained(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return p, fmt.Errorf("memscale: %d of %d messages delivered, windows not drained after 10s", delivered.Load(), p.Streams)
		}
	}
	heapAfter, goroutinesAfter := idleFootprint()
	p.HeapPerStream = float64(int64(heapAfter)-int64(heap)) / float64(p.Streams)
	p.GoroutinesPerStream = float64(goroutinesAfter-goroutines) / float64(p.Streams)
	return p, nil
}

// idleFootprint reads the live heap after two collections (the second
// empties what sync.Pool's victim cache kept through the first) and the
// goroutine count, once the count has held still for 10 ms (or after a
// second): a fabric closed just before may still be winding its goroutines
// down.
func idleFootprint() (heap uint64, goroutines int) {
	goroutines = runtime.NumGoroutine()
	for settled, waited := 0, 0; settled < 10 && waited < 1000; waited++ {
		time.Sleep(time.Millisecond)
		settled++
		if g := runtime.NumGoroutine(); g != goroutines {
			goroutines, settled = g, 0
		}
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, goroutines
}

// The storage comparison behind docs/PERF.md §7: populate N match-entry
// sized records first as individual heap allocations, then through the
// chunked typed arena (internal/arena) the engine uses, and measure what
// each layout costs the garbage collector. The arena packs thousands of
// records into one allocation, so the collector traces chunks instead of a
// million separate objects.

// gcEntry approximates the engine's matchEntry footprint: a few scalar
// words plus pointer fields the collector must trace.
type gcEntry struct {
	matchBits, ignoreBits uint64
	offset, length        uint64
	next, prev            *gcEntry
	buf                   []byte
	gen                   uint32
}

// GCPoint is one storage layout's cost to the collector: live heap objects,
// and the average wall time of a forced collection over them.
type GCPoint struct {
	Layout      string
	HeapObjects uint64
	ForcedGC    time.Duration
}

// GCCost measures the collector against entries live records, per layout:
// "heap" then "arena".
func GCCost(entries int) []GCPoint {
	var a arena.Arena[gcEntry]
	layouts := []struct {
		name  string
		alloc func() *gcEntry
	}{
		{"heap", func() *gcEntry { return new(gcEntry) }},
		{"arena", a.Get},
	}
	out := make([]GCPoint, 0, len(layouts))
	for _, l := range layouts {
		runtime.GC() // settle: free the previous population before measuring
		keep := make([]*gcEntry, entries)
		for i := range keep {
			keep[i] = l.alloc()
			keep[i].gen = uint32(i)
		}
		runtime.GC() // complete a cycle with the population live before timing
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// runtime.GC blocks until the cycle completes, so on a small host
		// its wall time is dominated by the mark phase over the live set.
		const forced = 3
		start := time.Now()
		for i := 0; i < forced; i++ {
			runtime.GC()
		}
		out = append(out, GCPoint{l.name, ms.HeapObjects, time.Since(start) / forced})
		runtime.KeepAlive(keep)
	}
	return out
}
