// Command collbench runs the offloaded-vs-host-driven collective
// experiment (internal/experiments E15): triggered-operation chains that
// progress on the delivery lanes while every rank burns CPU, against the
// same binary tree driven by host code between bursts of compute.
//
// Usage:
//
//	collbench [-procs 2,8,64] [-burns 0,2ms] [-iters 8] [-vec 8] [-lanes 1]
//	          [-transport loopback] [-loss 0] [-trace trace.json]
//	          [-metrics metrics.prom]
//
// -transport selects loopback (in-process), myrinet / gige (simulated
// packet fabrics under rtscts reliability), or udp (real kernel sockets).
// -loss injects a per-packet loss rate on the simulated fabrics — the
// triggered chains must then ride the reliability layer's retransmissions.
//
// -trace captures the flight recorder across the run; feed the file to
// cmd/tracecheck -require-offload to assert trig-fire instants (triggered
// operations executing on delivery lanes) land inside compute-burn spans —
// collectives progressing while the host makes no library calls.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
	"repro/internal/rtscts"
	"repro/internal/transport/simnet"
	"repro/portals"
)

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad proc count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseBurns(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "0" {
			out = append(out, 0)
			continue
		}
		d, err := time.ParseDuration(f)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad burn duration %q", f)
		}
		out = append(out, d)
	}
	return out, nil
}

func fabricFor(name string, loss float64) (portals.Fabric, error) {
	sim := func(cfg simnet.Config) portals.Fabric {
		cfg.LossRate = loss
		return portals.SimFabric(cfg, rtscts.DefaultConfig())
	}
	switch name {
	case "loopback":
		if loss != 0 {
			return portals.Fabric{}, fmt.Errorf("-loss needs a simulated fabric (myrinet or gige)")
		}
		return portals.Loopback(), nil
	case "myrinet":
		return sim(simnet.Myrinet()), nil
	case "gige":
		return sim(simnet.GigE()), nil
	case "udp":
		if loss != 0 {
			return portals.Fabric{}, fmt.Errorf("-loss needs a simulated fabric; use udp/proxytest for real-socket loss")
		}
		return portals.UDP(), nil
	default:
		return portals.Fabric{}, fmt.Errorf("unknown transport %q (loopback, myrinet, gige, udp)", name)
	}
}

func main() {
	procsFlag := flag.String("procs", "2,8,64", "comma-separated process counts")
	burnsFlag := flag.String("burns", "0,2ms", "comma-separated compute-burn durations (0 = bare latency)")
	iters := flag.Int("iters", 8, "repetitions per operation")
	vec := flag.Int("vec", 8, "allreduce vector length (float64 elements)")
	lanes := flag.Int("lanes", 1, "delivery lanes per node")
	transport := flag.String("transport", "loopback", "fabric: loopback, myrinet, gige, udp")
	loss := flag.Float64("loss", 0, "per-packet loss rate on simulated fabrics")
	traceOut := flag.String("trace", "", "write a Chrome Trace Event (Perfetto) capture to this file")
	metricsOut := flag.String("metrics", "", "write the final Prometheus text exposition to this file")
	flag.Parse()

	procs, err := parseProcs(*procsFlag)
	if err != nil {
		fatal(err)
	}
	burns, err := parseBurns(*burnsFlag)
	if err != nil {
		fatal(err)
	}
	fab, err := fabricFor(*transport, *loss)
	if err != nil {
		fatal(err)
	}

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.Enable(trace.Config{})
	}
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
	}
	cfg := experiments.OffloadConfig{Iters: *iters, Vec: *vec, Lanes: *lanes, Metrics: reg}

	fmt.Printf("# E15: offloaded (triggered) vs host-driven collectives\n")
	fmt.Printf("# transport=%s loss=%g lanes=%d iters=%d vec=%d\n",
		*transport, *loss, *lanes, *iters, *vec)
	fmt.Printf("%-7s %-10s %-10s %-14s %-14s %-14s\n",
		"procs", "op", "burn", "offloaded/op", "host/op", "hidden")

	points, err := experiments.OffloadSweep(fab, procs, burns, cfg)
	if err != nil {
		fatal(err)
	}
	for _, p := range points {
		fmt.Printf("%-7d %-10s %-10v %-14v %-14v %-14v\n",
			p.Procs, p.Op, p.Burn,
			p.Offloaded.Round(time.Microsecond), p.Host.Round(time.Microsecond),
			p.Hidden.Round(time.Microsecond))
	}

	if reg != nil {
		if err := writeFile(*metricsOut, reg.WriteText); err != nil {
			fatal(fmt.Errorf("metrics: %w", err))
		}
		fmt.Printf("# metrics: %s\n", *metricsOut)
	}
	if rec != nil {
		trace.Disable()
		if err := writeFile(*traceOut, func(w io.Writer) error {
			return trace.WriteChromeTrace(w, rec.Snapshot())
		}); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		fmt.Printf("# trace: %s (open in ui.perfetto.dev; validate with tracecheck -require-offload)\n", *traceOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "collbench:", err)
	os.Exit(1)
}

func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
