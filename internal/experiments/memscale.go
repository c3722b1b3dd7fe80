package experiments

import (
	"runtime"
	"time"

	"repro/internal/arena"
	"repro/internal/mpi"
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
