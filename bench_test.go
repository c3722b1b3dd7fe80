// Package repro's root benchmarks regenerate every table and figure of
// the paper (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for recorded results):
//
//	E1/E2  BenchmarkFigure6*          wait time vs work interval
//	E3     BenchmarkPingPong*,        zero-length / sized latency,
//	       BenchmarkBulk256KSimnet    bulk put+ack bytes and allocations
//	E4     BenchmarkWire*             Tables 1–4 wire handling cost
//	E5     BenchmarkMemScale          unexpected-memory scaling
//	E6     BenchmarkTranslate*        Figure 3/4 match-list walk cost
//	E7     BenchmarkCollectives*      direct-vs-over-MPI collectives
//	E8     BenchmarkBandwidth*        throughput vs message size
//	E15    BenchmarkCollOffload,      offloaded vs host-driven collectives,
//	       BenchmarkCTIncrement       counting-event hot-path cost
//
// Custom metrics carry the experiment's quantity (wait-µs, MB/s, bytes)
// alongside the usual ns/op.
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/nicsim"
	"repro/internal/rtscts"
	"repro/internal/stats"
	"repro/internal/swarm"
	"repro/internal/transport/loopback"
	"repro/internal/transport/simnet"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/portals"
)

// ---------------------------------------------------------------- E1/E2 --

func benchFigure6(b *testing.B, stack experiments.Stack, work time.Duration, testCalls int) {
	cfg := experiments.DefaultBypassConfig()
	cfg.Iters = 1
	cfg.TestCalls = testCalls
	var total time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBypass(stack, work, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += r.WaitTime
	}
	b.ReportMetric(float64(total.Microseconds())/float64(b.N), "wait-µs")
}

func BenchmarkFigure6Portals(b *testing.B) {
	for _, work := range []time.Duration{0, 4 * time.Millisecond, 8 * time.Millisecond} {
		b.Run(fmt.Sprintf("work=%v", work), func(b *testing.B) {
			benchFigure6(b, experiments.StackPortals, work, 0)
		})
	}
}

func BenchmarkFigure6GM(b *testing.B) {
	for _, work := range []time.Duration{0, 4 * time.Millisecond, 8 * time.Millisecond} {
		b.Run(fmt.Sprintf("work=%v", work), func(b *testing.B) {
			benchFigure6(b, experiments.StackGM, work, 0)
		})
	}
}

func BenchmarkFigure6TestCallsGM(b *testing.B) {
	// The §5.3 variant: 3 test calls during an 8 ms work interval.
	benchFigure6(b, experiments.StackGM, 8*time.Millisecond, 3)
}

// ------------------------------------------------------------------- E3 --

func benchPingPong(b *testing.B, fab portals.Fabric, size int) {
	iters := b.N
	if iters < 10 {
		iters = 10
	}
	lat, err := experiments.PingPong(fab, experiments.PingPongConfig{Size: size, Iters: iters})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(lat.Nanoseconds()), "latency-ns")
}

func BenchmarkPingPong0B(b *testing.B)         { benchPingPong(b, portals.Myrinet(), 0) }
func BenchmarkPingPong1KB(b *testing.B)        { benchPingPong(b, portals.Myrinet(), 1024) }
func BenchmarkPingPong0BLoopback(b *testing.B) { benchPingPong(b, portals.Loopback(), 0) }

// BenchmarkBulk256KSimnet is the repository benchmark's bulk256k_simnet
// operation (benchmark/, BENCHMARK.json) as a microbenchmark, so the
// BENCH_*.json trajectory records the number the gate sees: one 256 KiB
// acknowledged put over zero-wire simnet + rtscts — MTU 4096, RTS/CTS
// rendezvous, 65 fragments — from Put to the ack event. Run with -benchmem:
// B/op and allocs/op are the point; ns/op on a zero-wire fabric is the
// copies and the goroutine hand-offs.
func BenchmarkBulk256KSimnet(b *testing.B) {
	const size = 256 << 10
	rel := rtscts.DefaultConfig()
	// No loss to recover from: keep the retransmit timer clear of host stalls.
	rel.RTO, rel.RTOMin = 200*time.Millisecond, 200*time.Millisecond
	m := portals.NewMachine(portals.SimFabric(simnet.Config{MTU: 4096}, rel))
	defer m.Close()
	rx, err := m.NIInit(1, 1, portals.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	tx, err := m.NIInit(2, 1, portals.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	me, err := rx.MEAttach(0, portals.AnyProcess, 1, 0, portals.Retain, portals.After)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rx.MDAttach(me, portals.MD{
		Start: make([]byte, size), Threshold: portals.ThresholdInfinite,
		Options: portals.MDOpPut | portals.MDManageRemote,
	}, portals.Retain); err != nil {
		b.Fatal(err)
	}
	eq, err := tx.EQAlloc(16)
	if err != nil {
		b.Fatal(err)
	}
	md, err := tx.MDBind(portals.MD{Start: make([]byte, size), Threshold: portals.ThresholdInfinite, EQ: eq}, portals.Retain)
	if err != nil {
		b.Fatal(err)
	}
	putAck := func() {
		if err := tx.Put(md, portals.AckReq, rx.ID(), 0, 0, 1, 0); err != nil {
			b.Fatal(err)
		}
		for {
			ev, err := tx.EQPoll(eq, 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if ev.Type == portals.EventAck {
				return
			}
		}
	}
	for i := 0; i < 50; i++ { // warm the pools and the per-peer state
		putAck()
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		putAck()
	}
}

// ------------------------------------------------------------------- E4 --

func BenchmarkWireEncodePut(b *testing.B) {
	h := wire.NewPut(types.ProcessID{NID: 1, PID: 2}, types.ProcessID{NID: 3, PID: 4},
		1, 0, 0xF00D, 0, types.Handle{Kind: types.KindMD, Index: 1, Gen: 1}, 50*1024, types.AckReq)
	buf := make([]byte, wire.HeaderSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Encode(buf)
	}
}

func BenchmarkWireDecodePut(b *testing.B) {
	h := wire.NewPut(types.ProcessID{NID: 1, PID: 2}, types.ProcessID{NID: 3, PID: 4},
		1, 0, 0xF00D, 0, types.Handle{Kind: types.KindMD, Index: 1, Gen: 1}, 50*1024, types.AckReq)
	buf := make([]byte, wire.HeaderSize)
	h.Encode(buf)
	var out wire.Header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

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

// BenchmarkTranslateAckPooled measures the full receive-and-ack fast path
// at the engine level: translate, deliver, encode the ack into a pooled
// buffer, recycle. Steady state must report 0 allocs/op.
func BenchmarkTranslateAckPooled(b *testing.B) {
	st := core.NewState(types.ProcessID{NID: 1, PID: 1},
		types.Limits{}, nil, &stats.Counters{})
	me, err := st.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny},
		1, 0, types.Retain, types.After)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.MDAttach(me, core.MD{
		Start: make([]byte, 4096), Threshold: types.ThresholdInfinite,
		Options: types.MDOpPut | types.MDManageRemote,
	}, types.Retain); err != nil {
		b.Fatal(err)
	}
	h := wire.NewPut(types.ProcessID{NID: 2, PID: 1}, types.ProcessID{NID: 1, PID: 1},
		0, 0, 1, 0, types.Handle{Kind: types.KindMD, Index: 0, Gen: 0}, 1024, types.AckReq)
	payload := make([]byte, 1024)
	out := make([]core.Outbound, 0, 4)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = st.HandleIncomingInto(&h, payload, out[:0])
		for j := range out {
			out[j].Recycle()
		}
	}
}

// ------------------------------------------------------------------- E8 --

func BenchmarkBandwidth(b *testing.B) {
	for _, size := range []int{4 << 10, 32 << 10, 128 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			count := b.N
			if count < 8 {
				count = 8
			}
			pt, err := experiments.Bandwidth(portals.Myrinet(), size, count)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ReportMetric(pt.MBps, "MB/s")
		})
	}
}

// ------------------------------------------------------------------- E5 --

func BenchmarkMemScale(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			var p experiments.MemScalePoint
			for i := 0; i < b.N; i++ {
				m := portals.NewMachine(portals.Loopback())
				var err error
				p, err = experiments.MemScale(m, n, mpi.Config{}, 16, 32*1024)
				m.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.PortalsBytes), "portals-bytes")
			b.ReportMetric(float64(p.VIABytes), "via-bytes")
		})
	}
}

// ------------------------------------------------------------------- E7 --

func BenchmarkCollectives(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			iters := b.N
			if iters < 5 {
				iters = 5
			}
			pts, err := experiments.CollAblation(portals.Loopback(), n, iters, 64)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pts {
				b.ReportMetric(float64(p.DirectPerOp.Microseconds()), p.Op+"-direct-µs")
				b.ReportMetric(float64(p.OverMPIPerOp.Microseconds()), p.Op+"-overmpi-µs")
			}
		})
	}
}

// ------------------------------------------------------------------- E15 --

// BenchmarkCollOffload measures the triggered (NIC-offloaded) collectives
// against the host-driven tree under a compute burn — the headline
// numbers of docs/PERF.md's offloaded-collectives table, at smoke scale.
func BenchmarkCollOffload(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			iters := b.N
			if iters < 4 {
				iters = 4
			}
			cfg := experiments.OffloadConfig{Iters: iters, Vec: 8, Lanes: 1}
			pts, err := experiments.RunOffload(portals.Loopback(), n, 500*time.Microsecond, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pts {
				b.ReportMetric(float64(p.Offloaded.Microseconds()), p.Op+"-offloaded-µs")
				b.ReportMetric(float64(p.Host.Microseconds()), p.Op+"-host-µs")
			}
		})
	}
}

// BenchmarkCTIncrement is the triggered-op hot path at micro scale: one
// counting-event advance — the atomic increment plus armed-threshold
// check that runs per counted completion on the delivery lanes
// (core/ct.go ctInc). Triggered ops sit armed at unreachable thresholds
// so the measured cost is the common no-fire case; zero allocs is the
// portalsvet noalloc contract, asserted here dynamically too.
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

// ----------------------------------------------------- supporting micro --

// BenchmarkMPIPingPong measures the full MPI stack round trip on the
// loopback fabric (protocol cost without wire time), eager and long.
func BenchmarkMPIPingPong(b *testing.B) {
	for _, size := range []int{64, 100 * 1024} {
		name := "eager"
		if size > 32*1024 {
			name = "long"
		}
		b.Run(name, func(b *testing.B) {
			m := portals.NewMachine(portals.Loopback())
			defer m.Close()
			w, err := mpi.NewWorld(m, 2, mpi.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			err = w.Run(func(c *mpi.Comm) error {
				buf := make([]byte, size)
				peer := 1 - c.Rank()
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						if err := c.Send(buf, peer, 1); err != nil {
							return err
						}
						if _, err := c.Recv(buf, peer, 2); err != nil {
							return err
						}
					} else {
						if _, err := c.Recv(buf, peer, 1); err != nil {
							return err
						}
						if err := c.Send(buf, peer, 2); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPutDelivery measures the core engine's end-to-end put path on
// loopback: initiate, deliver, event.
func BenchmarkPutDelivery(b *testing.B) {
	m := portals.NewMachine(portals.Loopback())
	defer m.Close()
	rx, err := m.NIInit(1, 1, portals.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	tx, err := m.NIInit(2, 1, portals.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	eq, err := rx.EQAlloc(1024)
	if err != nil {
		b.Fatal(err)
	}
	me, err := rx.MEAttach(0, portals.AnyProcess, 1, 0, portals.Retain, portals.After)
	if err != nil {
		b.Fatal(err)
	}
	sink := make([]byte, 4096)
	if _, err := rx.MDAttach(me, portals.MD{
		Start: sink, Threshold: portals.ThresholdInfinite,
		Options: portals.MDOpPut | portals.MDManageRemote, EQ: eq,
	}, portals.Retain); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	md, err := tx.MDBind(portals.MD{Start: payload, Threshold: portals.ThresholdInfinite}, portals.Retain)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Put(md, portals.NoAckReq, rx.ID(), 0, 0, 1, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := rx.EQPoll(eq, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------------ E12 --

func BenchmarkReceiveOverhead(b *testing.B) {
	for _, row := range []struct {
		name  string
		model portals.NICModel
		cost  time.Duration
	}{
		{"nic-offload", portals.NICOffload, 0},
		{"interrupt", portals.HostInterrupt, 20 * time.Microsecond},
	} {
		b.Run(row.name, func(b *testing.B) {
			cfg := experiments.OverheadConfig{ComputeIters: 4000, MsgSize: 1024, MsgGap: 50 * time.Microsecond}
			var slow float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.ReceiveOverhead(row.model, row.cost, cfg)
				if err != nil {
					b.Fatal(err)
				}
				slow += r.SlowdownPct
			}
			b.ReportMetric(slow/float64(b.N), "slowdown-%")
		})
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

// ------------------------------------------------------------------ E14 --

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
				out, err := s.state.StartPut(s.md, types.NoAckReq, dst, 0, 0, 1, 0)
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
// see the lanes×GOMAXPROCS interaction (make bench records both).
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

// --------------------------------------------------- swarm steady state --

// BenchmarkSwarmSteady runs the internal/swarm closed-loop harness at two
// endpoint counts. ns/op includes fabric setup (it builds the endpoints
// inside the timed region — unavoidable, Run is one call); the ns/msg
// metric is the steady-state per-message engine cost, and staying flat
// between the two sub-benchmarks is the lock-free read-path regression
// check CI's bench-smoke watches. cmd/swarm runs the full 1k→100k sweep.
func BenchmarkSwarmSteady(b *testing.B) {
	for _, ep := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("endpoints=%d", ep), func(b *testing.B) {
			msgs := b.N
			if msgs < 256 {
				msgs = 256
			}
			rep, err := swarm.Run(swarm.Config{
				Endpoints:      ep,
				MEsPerEndpoint: 4,
				Nodes:          8,
				Drivers:        1,
				Messages:       msgs,
				PayloadBytes:   64,
				Seed:           1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Acked != rep.Sent {
				b.Fatalf("acked %d of %d sent", rep.Acked, rep.Sent)
			}
			b.ReportMetric(rep.NsPerMsg, "ns/msg")
			b.ReportMetric(float64(rep.P99), "p99-ns")
		})
	}
}
