package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/portals"
)

// table is every experiment this repository regenerates with a command
// (DESIGN.md §4 has the rest: tests and microbenchmarks). The order is the
// order of a run of everything.
var table = []experiment{
	{"bypass", "E1/E2 (Figure 6, §5.3)", "wait time vs work interval, MPI/GM against MPI/Portals", bypass, []section{
		{"E1 (Figure 6): wait time vs work interval, 10 x 50KB", nil},
		{"E2 (§5.3 variant): 3 test calls during work", []string{"-testcalls", "3", "-points", "3"}},
	}},
	{"pingpong", "E3/E8 (§3)", "Portals put latency, or with -bw bandwidth, over a fabric", pingpong, []section{
		{"E3 (§3): ping-pong latency (paper: <20µs on Myrinet MCP)", nil},
		{"E8 (§3): bandwidth vs message size over simulated Myrinet", []string{"-bw"}},
	}},
	{"memscale", "E5 (§4.1)", "unexpected-message memory vs peers, and what a fabric stream keeps; -gc: arena vs heap storage", memscale, []section{
		{"E5 (§4.1): unexpected-message memory vs peers, and what a simnet or udp stream keeps", nil},
	}},
	{"swarm", "PERF.md §7 (§4.1)", "closed-loop put cost vs endpoint count, uniform and hot-set", swarm, []section{
		{"PERF.md §7 (§4.1): put cost vs endpoints (the section's table runs 1k-100k)", []string{"-endpoints", "1000,10000", "-trials", "1"}},
	}},
	{"collectives", "E7 (§2)", "collectives directly on Portals against the same over MPI", collectives, []section{
		{"E7 (§2): collectives directly on Portals vs over MPI p2p", nil},
	}},
	{"overhead", "E12 (§5.1/§5.3)", "receive overhead, interrupt-driven against NIC-offload", overhead, []section{
		{"E12 (§5.1/§5.3): receive overhead, interrupt-driven vs NIC-offload", nil},
	}},
	{"scaling", "E14 (§4.1)", "barrier cost vs job size", scaling, []section{
		{"E14 (§4.1): barrier cost vs job size (per-process messages = log2 n)", nil},
	}},
	{"collbench", "E15 (§5.1, one level up)", "NIC-offloaded (triggered) against host-driven collectives", collbench, []section{
		{"E15 (§5.1, one level up): offloaded vs host-driven collectives under compute", nil},
	}},
	{"mpibench", "— (not a paper figure)", "OSU-style MPI latency, bandwidth and message rate", mpibench, []section{
		{"MPI-level performance (not a paper figure): ping-pong latency", nil},
	}},
}

func bypass(fs *flag.FlagSet, c *common) func(io.Writer) error {
	batch := count(fs, "batch", 10, "messages per batch")
	size := count(fs, "size", 50*1024, "message size in bytes")
	iters := count(fs, "iters", quickOr(c, 5, 2), "repetitions to average over")
	testCalls := checked(fs, "testcalls", "0", "MPI test calls sprinkled through the work interval", atLeast(0))
	maxWork := fs.Duration("max", quickOr(c, 12*time.Millisecond, 8*time.Millisecond), "largest work interval")
	points := count(fs, "points", quickOr(c, 9, 5), "number of work-interval points, evenly spaced from 0 to -max")
	return func(w io.Writer) error {
		cfg := experiments.DefaultBypassConfig()
		cfg.Batch, cfg.MsgSize, cfg.Iters, cfg.TestCalls, cfg.Metrics = *batch, *size, *iters, *testCalls, c.reg
		// A one-point sweep is the single point -max.
		works := []time.Duration{*maxWork}
		if *points > 1 {
			works = make([]time.Duration, *points)
			for i := range works {
				works[i] = *maxWork * time.Duration(i) / time.Duration(*points-1)
			}
		}
		fmt.Fprintf(w, "# Figure 6 reproduction: wait time vs work interval\n")
		fmt.Fprintf(w, "# batch=%d size=%dB iters=%d testcalls=%d fabric=myrinet-sim\n",
			cfg.Batch, cfg.MsgSize, cfg.Iters, cfg.TestCalls)
		fmt.Fprintf(w, "%-14s %-18s %-18s\n", "work", "wait(MPI/GM)", "wait(MPI/Portals)")
		// Figure6Sweep returns the GM curve, then the Portals curve.
		res, err := experiments.Figure6Sweep(works, cfg)
		if err != nil {
			return err
		}
		gm, pt := res[:len(works)], res[len(works):]
		for i, work := range works {
			fmt.Fprintf(w, "%-14v %-18v %-18v\n", work,
				gm[i].WaitTime.Round(time.Microsecond), pt[i].WaitTime.Round(time.Microsecond))
		}
		return nil
	}
}

func pingpong(fs *flag.FlagSet, c *common) func(io.Writer) error {
	fabric := fabricFlag(fs, "myrinet")
	iters := count(fs, "iters", quickOr(c, 200, 50), "round trips per latency measurement")
	bw := fs.Bool("bw", false, "run the bandwidth sweep instead of latency")
	msgs := count(fs, "count", 64, "messages per bandwidth point")
	return func(w io.Writer) error {
		fab, err := fabricByName(*fabric, 0)
		if err != nil {
			return err
		}
		if *bw {
			fmt.Fprintf(w, "# Bandwidth vs message size over %s (E8)\n", *fabric)
			fmt.Fprintf(w, "%-10s %-12s %-12s\n", "size", "MB/s", "elapsed")
			for _, size := range []int{1 << 10, 4 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 1 << 20} {
				pt, err := experiments.Bandwidth(fab, size, *msgs)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-10d %-12.1f %-12v\n", pt.Size, pt.MBps, pt.Elapsed.Round(time.Microsecond))
			}
			return nil
		}
		fmt.Fprintf(w, "# Ping-pong latency over %s (E3; paper: <20µs on the Myrinet MCP)\n", *fabric)
		fmt.Fprintf(w, "%-10s %-14s\n", "size", "half-RTT")
		for _, size := range []int{0, 8, 64, 1024, 8192, 65536} {
			lat, err := experiments.PingPong(fab, experiments.PingPongConfig{Size: size, Iters: *iters, Metrics: c.reg})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10d %-14v\n", size, lat.Round(100*time.Nanosecond))
		}
		return nil
	}
}

// streamNodes is the largest node count memscale's fabric columns are
// measured at: n nodes open n(n-1) streams, and 32 nodes' 992 streams show
// the per-stream cost as well as 256 nodes' 65 280 would, which on simnet
// would also park 65 280 link goroutines.
const streamNodes = 32

// streamFabrics are the reliable fabrics memscale measures a stream on.
var streamFabrics = []string{"simnet", "udp"}

func memscale(fs *flag.FlagSet, c *common) func(io.Writer) error {
	credits := count(fs, "credits", 16, "pre-posted receive buffers per VIA connection")
	bufSize := count(fs, "bufsize", 32*1024, "VIA eager buffer size in bytes")
	maxPeers := count(fs, "maxpeers", quickOr(c, 256, 32), "largest peer count to measure")
	gc := fs.Bool("gc", false, "measure GC cost of arena vs per-object match-entry storage instead")
	entries := count(fs, "entries", quickOr(c, 1_000_000, 100_000), "live records for the -gc comparison")
	return func(w io.Writer) error {
		if *gc {
			fmt.Fprintf(w, "# GC cost of %d live match-entry records, per storage layout (PR 7, docs/PERF.md §7)\n", *entries)
			fmt.Fprintf(w, "%-10s %-14s %-14s\n", "layout", "heap-objects", "forced-gc")
			pts := experiments.GCCost(*entries)
			for _, p := range pts {
				fmt.Fprintf(w, "%-10s %-14d %-14v\n", p.Layout, p.HeapObjects, p.ForcedGC.Round(time.Microsecond))
			}
			if heap, arena := pts[0].HeapObjects, pts[1].HeapObjects; arena > 0 && heap > arena {
				fmt.Fprintf(w, "# arena layout carries %.3f%% of the heap's object count\n", 100*float64(arena)/float64(heap))
			}
			return nil
		}
		fmt.Fprintf(w, "# Unexpected-message memory vs peers (E5, §4.1)\n")
		fmt.Fprintf(w, "# VIA model: %d credits × %d B per connection; Portals: application-sized pool\n",
			*credits, *bufSize)
		fmt.Fprintf(w, "# simnet, udp: heap and goroutines one idle rtscts stream keeps, after one message per ordered pair of peers+1 nodes (to %d nodes)\n",
			streamNodes)
		fmt.Fprintf(w, "%-8s %-16s %-16s", "peers", "portals(bytes)", "via(bytes)")
		for _, f := range streamFabrics {
			fmt.Fprintf(w, " %18s %20s", f+"(B/stream)", f+"(goroutines)")
		}
		fmt.Fprintln(w)
		for n := 2; n-1 <= *maxPeers; n *= 2 {
			m := portals.NewMachine(portals.Loopback())
			p, err := experiments.MemScale(m, n, mpi.Config{}, *credits, *bufSize)
			if cerr := m.CheckTeardown(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8d %-16d %-16d", p.Peers, p.PortalsBytes, p.VIABytes)
			for _, f := range streamFabrics {
				if n > streamNodes {
					fmt.Fprintf(w, " %18s %20s", "-", "-")
					continue
				}
				s, err := experiments.StreamCost(f, n)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %18.0f %20.2f", s.HeapPerStream, s.GoroutinesPerStream)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

func swarm(fs *flag.FlagSet, c *common) func(io.Writer) error {
	endpoints := checked(fs, "endpoints", quickOr(c, "1000,10000,100000", "1000,10000"),
		"comma-separated endpoint counts", listOf(atLeast(1)))
	hot := count(fs, "hot", 256, "endpoints the hot-set column puts to")
	msgs := count(fs, "msgs", quickOr(c, 200_000, 20_000), "timed puts per column and trial")
	trials := count(fs, "trials", quickOr(c, 3, 1), "trials per endpoint count; the best is reported")
	fabric := checked(fs, "fabric", "loopback", "fabric: loopback or udp", func(s string) (string, error) {
		if s != "loopback" && s != "udp" {
			return "", fmt.Errorf("unknown fabric (loopback, udp)")
		}
		return s, nil
	})
	return func(w io.Writer) error {
		fmt.Fprintf(w, "# Put cost vs endpoints (PERF.md §7): closed loop over %s, 10 MEs per endpoint, 16 nodes, best of %d trials (hot-spread: worst - best)\n",
			*fabric, *trials)
		fmt.Fprintf(w, "%-10s %-14s %-16s %-16s %-12s %s\n", "endpoints", "match-entries", "uniform(ns/msg)",
			fmt.Sprintf("hot-%d(ns/msg)", *hot), "hot-spread", "acked")
		for _, n := range *endpoints {
			s, err := experiments.NewSwarm(*fabric, n)
			if err != nil {
				return err
			}
			var uniform, hotNs []float64 // ns per put, one per trial
			for t := 0; t < *trials && err == nil; t++ {
				var u, h float64
				if u, err = s.Measure(*msgs, n); err == nil {
					h, err = s.Measure(*msgs, *hot)
				}
				uniform, hotNs = append(uniform, u), append(hotNs, h)
			}
			s.Close()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10d %-14d %-16.0f %-16.0f %-12.0f %d/%d\n", n, s.MatchEntries,
				slices.Min(uniform), slices.Min(hotNs), slices.Max(hotNs)-slices.Min(hotNs), s.Acked, s.Sent)
		}
		return nil
	}
}

func collectives(_ *flag.FlagSet, _ *common) func(io.Writer) error {
	return func(w io.Writer) error {
		fmt.Fprintf(w, "%-12s %-8s %-14s %-14s %-8s\n", "op", "procs", "direct", "over-mpi", "speedup")
		for _, n := range []int{4, 8, 16} {
			points, err := experiments.CollAblation(portals.Loopback(), n, 20, 64)
			if err != nil {
				return err
			}
			for _, p := range points {
				fmt.Fprintf(w, "%-12s %-8d %-14v %-14v %-8.2f\n", p.Op, p.Procs,
					p.DirectPerOp.Round(time.Microsecond), p.OverMPIPerOp.Round(time.Microsecond), p.Speedup)
			}
		}
		return nil
	}
}

func overhead(_ *flag.FlagSet, c *common) func(io.Writer) error {
	return func(w io.Writer) error {
		cfg := experiments.DefaultOverheadConfig()
		cfg.ComputeIters = quickOr(c, cfg.ComputeIters, 8000)
		fmt.Fprintf(w, "%-12s %-12s %-12s %-12s %-10s %-8s\n", "model", "idle", "loaded", "slowdown", "msgs", "intr")
		for _, row := range []struct {
			name  string
			model portals.NICModel
			cost  time.Duration
		}{
			{"nic-offload", portals.NICOffload, 0},
			{"interrupt", portals.HostInterrupt, 20 * time.Microsecond},
		} {
			r, err := experiments.ReceiveOverhead(row.model, row.cost, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %-12v %-12v %-11.1f%% %-10d %-8d\n", row.name,
				r.IdleCompute.Round(time.Microsecond), r.LoadedCompute.Round(time.Microsecond),
				r.SlowdownPct, r.Messages, r.Interrupts)
		}
		return nil
	}
}

func scaling(_ *flag.FlagSet, _ *common) func(io.Writer) error {
	return func(w io.Writer) error {
		fmt.Fprintf(w, "%-8s %-14s %-12s %-16s\n", "procs", "wall/op", "msgs/proc", "msgs/proc/log2n")
		points, err := experiments.BarrierScaling(portals.Loopback(), []int{4, 8, 16, 32, 64, 128}, 10)
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Fprintf(w, "%-8d %-14v %-12.2f %-16.2f\n",
				p.Procs, p.PerBarrier.Round(time.Microsecond), p.MsgsPerProc, p.MsgsPerOpLog)
		}
		return nil
	}
}

func collbench(fs *flag.FlagSet, c *common) func(io.Writer) error {
	procs := checked(fs, "procs", quickOr(c, "2,8,64", "2,8"), "comma-separated process counts", listOf(atLeast(1)))
	burns := checked(fs, "burns", "0,2ms", "comma-separated compute-burn durations (0 = bare latency)", listOf(burn))
	iters := count(fs, "iters", quickOr(c, 8, 2), "repetitions per operation")
	vec := count(fs, "vec", 8, "allreduce vector length (float64 elements)")
	lanes := count(fs, "lanes", 1, "delivery lanes per node")
	fabric := fabricFlag(fs, "loopback")
	loss := fs.Float64("loss", 0, "per-packet loss rate on the simulated fabrics: the chains then ride rtscts retransmissions")
	return func(w io.Writer) error {
		fab, err := fabricByName(*fabric, *loss)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# E15: offloaded (triggered) vs host-driven collectives\n")
		fmt.Fprintf(w, "# fabric=%s loss=%g lanes=%d iters=%d vec=%d\n", *fabric, *loss, *lanes, *iters, *vec)
		fmt.Fprintf(w, "%-7s %-10s %-10s %-14s %-14s %-14s\n",
			"procs", "op", "burn", "offloaded/op", "host/op", "hidden")
		points, err := experiments.OffloadSweep(fab, *procs, *burns,
			experiments.OffloadConfig{Iters: *iters, Vec: *vec, Lanes: *lanes, Metrics: c.reg})
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Fprintf(w, "%-7d %-10s %-10v %-14v %-14v %-14v\n", p.Procs, p.Op, p.Burn,
				p.Offloaded.Round(time.Microsecond), p.Host.Round(time.Microsecond), p.Hidden.Round(time.Microsecond))
		}
		return nil
	}
}

func mpibench(fs *flag.FlagSet, c *common) func(io.Writer) error {
	fabric := fabricFlag(fs, "myrinet")
	bench := checked(fs, "bench", "latency", "benchmark: latency, bw, rate", func(s string) (string, error) {
		if s != "latency" && s != "bw" && s != "rate" {
			return "", fmt.Errorf("unknown benchmark (latency, bw, rate)")
		}
		return s, nil
	})
	iters := count(fs, "iters", quickOr(c, 200, 50), "iterations per size")
	window := count(fs, "window", 32, "in-flight messages for bw/rate")
	return func(w io.Writer) (err error) {
		fab, err := fabricByName(*fabric, 0)
		if err != nil {
			return err
		}
		m := portals.NewMachine(fab)
		defer func() { err = errors.Join(err, m.CheckTeardown()) }()
		world, err := mpi.NewWorld(m, 2, mpi.Config{})
		if err != nil {
			return err
		}
		if c.reg != nil {
			m.RegisterMetrics(c.reg)
		}
		switch *bench {
		case "latency":
			fmt.Fprintf(w, "# MPI ping-pong latency over %s (half RTT)\n%-10s %-14s\n", *fabric, "size", "latency")
			for _, size := range []int{0, 8, 64, 1024, 8192, 65536} {
				lat, err := experiments.MPILatency(world, size, *iters)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-10d %-14v\n", size, lat.Round(100*time.Nanosecond))
			}
		case "bw":
			fmt.Fprintf(w, "# MPI streaming bandwidth over %s (window %d)\n%-10s %-12s\n", *fabric, *window, "size", "MB/s")
			for _, size := range []int{1024, 8192, 65536, 262144} {
				elapsed, err := experiments.MPIStream(world, size, *iters, *window)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-10d %-12.1f\n", size, float64(size)*float64(*iters)/elapsed.Seconds()/1e6)
			}
		case "rate":
			msgs := *iters * 10
			elapsed, err := experiments.MPIStream(world, 0, msgs, *window)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "# MPI message rate over %s: %.0f msgs/s (0-byte, window %d)\n",
				*fabric, float64(msgs)/elapsed.Seconds(), *window)
		}
		return nil
	}
}
