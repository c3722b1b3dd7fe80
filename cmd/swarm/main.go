// Command swarm runs the million-endpoint open-loop load harness
// (internal/swarm) and reports ack round-trip latency quantiles plus
// per-message engine cost. It exists to demonstrate — and to regress —
// the lock-free read path: per-message cost should stay flat as the
// endpoint count grows from 1k to 100k (docs/PERF.md §7).
//
// Usage:
//
//	go run ./cmd/swarm -endpoints 100000 -mes 10 -msgs 200000
//	go run ./cmd/swarm -sweep 1000,10000,100000 -msgs 100000
//	go run ./cmd/swarm -rate 50000 -duration 5s
//
// -sweep runs the same workload once per endpoint count and prints the
// max/min per-message cost ratio (the flatness figure).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/swarm"
)

func main() {
	endpoints := flag.Int("endpoints", 1000, "number of target endpoint processes")
	mes := flag.Int("mes", 10, "wildcard match entries (and descriptors) per endpoint")
	nodes := flag.Int("nodes", 16, "fabric nodes the endpoints spread over")
	drivers := flag.Int("drivers", 1, "initiator processes issuing puts")
	rate := flag.Float64("rate", 0, "offered load in msgs/s across all drivers (0 = closed loop)")
	msgs := flag.Int("msgs", 0, "total messages to send (0 = run for -duration)")
	duration := flag.Duration("duration", time.Second, "send window when -msgs is 0")
	payload := flag.Int("payload", 64, "put payload bytes")
	lanes := flag.Int("lanes", 1, "delivery lanes per node")
	inflight := flag.Int("inflight", 4096, "per-driver unacked message cap")
	hot := flag.Int("hot", 0, "restrict traffic to the first N endpoints (0 = all; the flatness control)")
	warmup := flag.Int("warmup", 0, "untimed warmup messages before the measured window (0 = auto, -1 = none)")
	trials := flag.Int("trials", 1, "runs per configuration; the best (lowest ns/msg) is reported")
	seed := flag.Int64("seed", 1, "target-selection seed")
	transport := flag.String("transport", "loopback", "fabric under the harness: loopback or udp")
	sweep := flag.String("sweep", "", "comma-separated endpoint counts to sweep (overrides -endpoints)")
	flag.Parse()

	counts := []int{*endpoints}
	if *sweep != "" {
		counts = counts[:0]
		for _, f := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "swarm: bad -sweep entry %q\n", f)
				os.Exit(2)
			}
			counts = append(counts, n)
		}
	}

	var minNs, maxNs float64
	for _, ep := range counts {
		cfg := swarm.Config{
			Endpoints:      ep,
			MEsPerEndpoint: *mes,
			Nodes:          *nodes,
			Drivers:        *drivers,
			Rate:           *rate,
			Messages:       *msgs,
			Duration:       *duration,
			PayloadBytes:   *payload,
			Lanes:          *lanes,
			MaxInflight:    *inflight,
			HotTargets:     *hot,
			Warmup:         *warmup,
			Seed:           *seed,
			Transport:      *transport,
		}
		if *trials < 1 {
			*trials = 1
		}
		var rep *swarm.Report
		for t := 0; t < *trials; t++ {
			r, err := swarm.Run(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "swarm:", err)
				os.Exit(1)
			}
			if rep == nil || r.NsPerMsg < rep.NsPerMsg {
				rep = r
			}
		}
		printReport(rep)
		if minNs == 0 || rep.NsPerMsg < minNs {
			minNs = rep.NsPerMsg
		}
		if rep.NsPerMsg > maxNs {
			maxNs = rep.NsPerMsg
		}
	}
	if len(counts) > 1 && minNs > 0 {
		fmt.Printf("flatness: max/min ns/msg = %.3f across %v endpoints\n", maxNs/minNs, counts)
	}
}

func printReport(r *swarm.Report) {
	fmt.Printf("endpoints=%d mes=%d nodes=%d drivers=%d\n",
		r.Endpoints, r.MatchEntries, r.Nodes, r.Drivers)
	fmt.Printf("  sent=%d acked=%d elapsed=%v\n", r.Sent, r.Acked, r.Elapsed.Round(time.Millisecond))
	mode := "closed-loop"
	if r.OfferedRate > 0 {
		mode = fmt.Sprintf("offered %.0f msgs/s", r.OfferedRate)
	}
	fmt.Printf("  %s: achieved %.0f msgs/s, %.0f ns/msg\n", mode, r.AchievedRate, r.NsPerMsg)
	fmt.Printf("  latency p50=%v p99=%v p999=%v\n", r.P50, r.P99, r.P999)
}
