// Package repro's root benchmarks are the microbenchmarks nothing else in
// the tree measures. Every other table and figure has exactly one
// regenerator, named in DESIGN.md §4: a row of cmd/sweep's table for the
// paper's experiments, E15, the MPI reference numbers and the endpoint-scaling
// sweep (`sweep swarm`), and the repository benchmark (`go run ./benchmark`,
// BENCHMARK.json) for the end-to-end message path and its per-layer rows.
// What is left here:
//
//	E4     BenchmarkWireAckReplyBuild  ack/reply header derivation
//	E6     BenchmarkTranslate*         Figure 3/4 match-list walk cost
//	E13    BenchmarkIOVecScatter       contiguous vs scattered delivery
//	E15    BenchmarkCTIncrement        counting-event hot-path cost
//	       BenchmarkDeliveryLanes      lanes × initiators scaling grid
//	       BenchmarkEagerThreshold     rendezvous vs eager, same stream
//
// Compare two trees with `make bench-ab BASE=<ref> BENCH=<regexp>` — never a
// number from one run against a number recorded elsewhere. `make bench-smoke`
// runs every benchmark of every package once.
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nicsim"
	"repro/internal/rtscts"
	"repro/internal/stats"
	"repro/internal/transport/loopback"
	"repro/internal/transport/simnet"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/portals"
)

// ------------------------------------------------------------------- E4 --

// BenchmarkWireAckReplyBuild is the half of the Tables 1–4 handling cost no
// benchmark workload sees on its own: deriving an ack and a reply header
// from the request that caused them (encode and decode are wire.encode_ns
// and wire.decode_ns of `go run ./benchmark -trace 1`).
func BenchmarkWireAckReplyBuild(b *testing.B) {
	put := wire.NewPut(types.ProcessID{NID: 1, PID: 2}, types.ProcessID{NID: 3, PID: 4},
		1, 0, 0xF00D, 0, types.Handle{Kind: types.KindMD, Index: 1, Gen: 1}, 1024, types.AckReq)
	get := wire.NewGet(types.ProcessID{NID: 1, PID: 2}, types.ProcessID{NID: 3, PID: 4},
		1, 0, 0xF00D, 0, types.Handle{Kind: types.KindMD, Index: 1, Gen: 1}, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wire.AckFor(&put, 1024)
		_ = wire.ReplyFor(&get, 1024)
	}
}

// ------------------------------------------------------------------- E6 --

// benchTranslate measures the Figure 4 walk: a match list of the given
// depth where the incoming put matches entry hitAt (0-based).
func benchTranslate(b *testing.B, depth, hitAt int) {
	st := core.NewState(types.ProcessID{NID: 1, PID: 1},
		types.Limits{MaxMEs: depth + 8, MaxMDs: depth + 8}, nil, &stats.Counters{})
	buf := make([]byte, 64)
	for i := 0; i < depth; i++ {
		me, err := st.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny},
			types.MatchBits(i), 0, types.Retain, types.After)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.MDAttach(me, core.MD{
			Start: buf, Threshold: types.ThresholdInfinite,
			Options: types.MDOpPut | types.MDManageRemote,
		}, types.Retain); err != nil {
			b.Fatal(err)
		}
	}
	h := wire.NewPut(types.ProcessID{NID: 2, PID: 1}, types.ProcessID{NID: 1, PID: 1},
		0, 0, types.MatchBits(hitAt), 0, types.Handle{Kind: types.KindMD, Index: 0, Gen: 0}, 8, types.NoAckReq)
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.HandleIncoming(&h, payload)
	}
	if st.Counters().Dropped() != 0 {
		b.Fatalf("drops during translate bench: %v", st.Counters().Snapshot())
	}
}

func BenchmarkTranslateDepth(b *testing.B) {
	for _, depth := range []int{1, 16, 128, 1024} {
		b.Run(fmt.Sprintf("depth=%d/hit=first", depth), func(b *testing.B) {
			benchTranslate(b, depth, 0)
		})
		b.Run(fmt.Sprintf("depth=%d/hit=last", depth), func(b *testing.B) {
			benchTranslate(b, depth, depth-1)
		})
	}
}

// benchTranslateClass targets the match index (docs/PERF.md): depth entries
// where the incoming put matches only the LAST one. With exact=true every
// entry has a fully-specified matchID and no ignore bits, so the indexed
// walk is a hash lookup — constant in depth. With exact=false every entry
// uses ignore bits (the residual class), so the walk stays linear in both
// the indexed and the reference engine — the no-regression case.
func benchTranslateClass(b *testing.B, depth int, exact bool) {
	st := core.NewState(types.ProcessID{NID: 1, PID: 1},
		types.Limits{MaxMEs: depth + 8, MaxMDs: depth + 8}, nil, &stats.Counters{})
	buf := make([]byte, 64)
	for i := 0; i < depth; i++ {
		matchID := types.ProcessID{NID: 2, PID: types.PID(1000 + i)}
		bits, ignore := types.MatchBits(i), types.MatchBits(0)
		if !exact {
			matchID = types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}
			bits, ignore = types.MatchBits(i)<<8, types.MatchBits(0xFF)
		}
		me, err := st.MEAttach(0, matchID, bits, ignore, types.Retain, types.After)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.MDAttach(me, core.MD{
			Start: buf, Threshold: types.ThresholdInfinite,
			Options: types.MDOpPut | types.MDManageRemote,
		}, types.Retain); err != nil {
			b.Fatal(err)
		}
	}
	hit := depth - 1
	initiator := types.ProcessID{NID: 2, PID: types.PID(1000 + hit)}
	bits := types.MatchBits(hit)
	if !exact {
		bits = types.MatchBits(hit) << 8
	}
	h := wire.NewPut(initiator, types.ProcessID{NID: 1, PID: 1},
		0, 0, bits, 0, types.Handle{Kind: types.KindMD, Index: 0, Gen: 0}, 8, types.NoAckReq)
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.HandleIncoming(&h, payload)
	}
	if st.Counters().Dropped() != 0 {
		b.Fatalf("drops during translate bench: %v", st.Counters().Snapshot())
	}
}

func BenchmarkTranslateExact(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("entries=%d", depth), func(b *testing.B) {
			benchTranslateClass(b, depth, true)
		})
	}
}

func BenchmarkTranslateWildcard(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("entries=%d", depth), func(b *testing.B) {
			benchTranslateClass(b, depth, false)
		})
	}
}

// ------------------------------------------------------------------ E15 --

// BenchmarkCTIncrement is the triggered-op hot path at micro scale: one
// counting-event advance — the atomic increment plus armed-threshold
// check that runs per counted completion on the delivery lanes
// (core/ct.go ctInc). Triggered ops sit armed at unreachable thresholds
// so the measured cost is the common no-fire case; the zero-allocation
// contract is portals.TestRoundTripAllocs/triggered's, reported here too.
func BenchmarkCTIncrement(b *testing.B) {
	m := portals.NewMachine(portals.Loopback())
	defer m.Close()
	nis, err := m.LaunchJob(1)
	if err != nil {
		b.Fatal(err)
	}
	ni := nis[0]
	ct, err := ni.CTAlloc()
	if err != nil {
		b.Fatal(err)
	}
	res, err := ni.CTAlloc()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := ni.TriggeredCTInc(res, portals.CTValue{Success: 1}, ct, 1<<62); err != nil {
			b.Fatal(err)
		}
	}
	one := portals.CTValue{Success: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ni.CTInc(ct, one); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------------ E13 --

// BenchmarkIOVecScatter compares delivery into a contiguous descriptor
// with delivery scattered across 8 segments (the §7 extension).
func BenchmarkIOVecScatter(b *testing.B) {
	run := func(b *testing.B, md portals.MD) {
		st := core.NewState(types.ProcessID{NID: 1, PID: 1}, types.Limits{}, nil, &stats.Counters{})
		me, err := st.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny},
			1, 0, types.Retain, types.After)
		if err != nil {
			b.Fatal(err)
		}
		cmd := core.MD{Start: md.Start, Segments: md.Segments,
			Threshold: types.ThresholdInfinite, Options: types.MDOpPut | types.MDManageRemote}
		if _, err := st.MDAttach(me, cmd, types.Retain); err != nil {
			b.Fatal(err)
		}
		h := wire.NewPut(types.ProcessID{NID: 2, PID: 1}, types.ProcessID{NID: 1, PID: 1},
			0, 0, 1, 0, types.Handle{Kind: types.KindMD, Index: 0, Gen: 0}, 4096, types.NoAckReq)
		payload := make([]byte, 4096)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.HandleIncoming(&h, payload)
		}
	}
	b.Run("contiguous", func(b *testing.B) {
		run(b, portals.MD{Start: make([]byte, 4096)})
	})
	b.Run("segments=8", func(b *testing.B) {
		segs := make([][]byte, 8)
		for i := range segs {
			segs[i] = make([]byte, 512)
		}
		run(b, portals.MD{Segments: segs})
	})
}

// -------------------------------------------------------- delivery lanes --

// benchDeliveryLanes drives the multi-lane delivery engine (docs/PERF.md
// §5) at full tilt: `initiators` nodes blast 4 KB puts at `initiators`
// distinct processes on one target node, and the benchmark completes when
// the target has received them all. Distinct (src NID, target PID) pairs
// are distinct flows, so with enough lanes they process in parallel;
// distinct target processes keep the portal locks disjoint too, so the
// lanes — not a shared lock — are what is measured. No event queues are
// armed: receive counters detect completion without an EQ consumer in the
// timed path.
func benchDeliveryLanes(b *testing.B, lanes, initiators int) {
	net := loopback.New()
	defer net.Close()
	target, err := nicsim.NewNode(net, 100, nicsim.Config{Lanes: lanes})
	if err != nil {
		b.Fatal(err)
	}
	defer target.Close()
	rxStates := make([]*core.State, initiators)
	for i := range rxStates {
		pid := types.PID(10 + i)
		st := core.NewState(types.ProcessID{NID: 100, PID: pid}, types.Limits{}, nil, &stats.Counters{})
		if err := target.AddProcess(pid, st); err != nil {
			b.Fatal(err)
		}
		me, err := st.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}, 1, 0, types.Retain, types.After)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.MDAttach(me, core.MD{
			Start: make([]byte, 4096), Threshold: types.ThresholdInfinite,
			Options: types.MDOpPut | types.MDManageRemote,
		}, types.Retain); err != nil {
			b.Fatal(err)
		}
		rxStates[i] = st
	}

	type tx struct {
		node  *nicsim.Node
		state *core.State
		md    types.Handle
	}
	senders := make([]tx, initiators)
	for i := range senders {
		node, err := nicsim.NewNode(net, types.NID(i+1), nicsim.Config{Lanes: lanes})
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		st := core.NewState(types.ProcessID{NID: types.NID(i + 1), PID: 1}, types.Limits{}, nil, &stats.Counters{})
		if err := node.AddProcess(1, st); err != nil {
			b.Fatal(err)
		}
		md, err := st.MDBind(core.MD{Start: make([]byte, 4096), Threshold: types.ThresholdInfinite}, types.Retain)
		if err != nil {
			b.Fatal(err)
		}
		senders[i] = tx{node: node, state: st, md: md}
	}

	per := (b.N + initiators - 1) / initiators
	total := int64(per * initiators)
	b.SetBytes(4096)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := range senders {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := senders[i]
			dst := types.ProcessID{NID: 100, PID: types.PID(10 + i)}
			for j := 0; j < per; j++ {
				out, err := s.state.LendPut(s.md, types.NoAckReq, dst, 0, 0, 1, 0)
				if err != nil {
					b.Error(err)
					return
				}
				if err := s.node.Send(out); err != nil {
					b.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for {
		var got int64
		for _, st := range rxStates {
			got += st.Counters().Snapshot().RecvMsgs
		}
		if got >= total {
			break
		}
		runtime.Gosched()
	}
}

// BenchmarkDeliveryLanes is the scaling grid for the multi-lane engine:
// aggregate receive throughput must grow near-linearly with lanes while
// lanes=1 stays within noise of the serial engine. Run with -cpu=1,4 to
// see the lanes×GOMAXPROCS interaction.
func BenchmarkDeliveryLanes(b *testing.B) {
	for _, lanes := range []int{1, 2, 4, 8} {
		for _, initiators := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("lanes=%d/initiators=%d", lanes, initiators), func(b *testing.B) {
				benchDeliveryLanes(b, lanes, initiators)
			})
		}
	}
}

// ----------------------------------------------- eager/rendezvous knob --

// BenchmarkEagerThreshold is the transport-level ablation DESIGN.md calls
// out: the same 64 KB message stream with the rendezvous threshold below
// (RTS/CTS round trip per message) and above (pure eager) the message
// size. The gap is the cost of receiver-managed flow control.
func BenchmarkEagerThreshold(b *testing.B) {
	const msgSize = 64 << 10
	for _, cfg := range []struct {
		name  string
		eager int
	}{
		{"rendezvous", 8 << 10},
		{"eager", 128 << 10},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			fab := portals.SimFabric(simnet.Myrinet(), rtscts.Config{EagerMax: cfg.eager})
			count := b.N
			if count < 8 {
				count = 8
			}
			pt, err := experiments.Bandwidth(fab, msgSize, count)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(msgSize)
			b.ReportMetric(pt.MBps, "MB/s")
		})
	}
}
