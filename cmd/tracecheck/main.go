// Command tracecheck validates the artifacts the observability subsystem
// emits (docs/OBSERVABILITY.md): Chrome Trace Event JSON from the flight
// recorder (internal/obs/trace) and Prometheus text exposition from the
// metrics registry (internal/obs/metrics). It is the assertion half of
// `make trace-smoke`: a refactor that silently breaks either exporter
// fails CI here rather than in someone's Perfetto tab.
//
// Usage:
//
//	tracecheck [-trace trace.json] [-metrics metrics.prom] [-require-bypass]
//	           [-require-offload]
//
// -require-bypass additionally asserts the §5.1 application-bypass claim
// is visible in the capture: at least one receive-side instant
// (match-done, deliver, or event-post) must land INSIDE a "compute burn"
// span on the same node — message handling progressing while the
// application makes no library calls.
//
// -require-offload asserts the triggered-operations claim the same way:
// at least one trig-fire instant (a triggered put/get/ct-inc executing on
// a delivery lane, core/ct.go) must land inside a compute-burn span on
// the same node — the collective chain progressing with zero host
// wakeups while the application burns CPU. Captures come from
// `sweep collbench -trace`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/obs/trace"
)

// receiveSide are the instants that can only be produced by the delivery
// engine handling an incoming message.
var receiveSide = map[string]bool{"match-done": true, "deliver": true, "event-post": true}

func checkTrace(path string, requireBypass, requireOffload bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var t trace.ChromeTrace
	if err := json.Unmarshal(data, &t); err != nil {
		return fmt.Errorf("%s: not valid Chrome Trace JSON: %w", path, err)
	}
	if t.DisplayTimeUnit == "" {
		return fmt.Errorf("%s: missing displayTimeUnit", path)
	}
	if len(t.TraceEvents) == 0 {
		return fmt.Errorf("%s: empty traceEvents (was the recorder enabled?)", path)
	}
	validPh := map[string]bool{"X": true, "i": true, "M": true}
	for i, ev := range t.TraceEvents {
		switch {
		case ev.Name == "":
			return fmt.Errorf("%s: event %d has an empty name", path, i)
		case !validPh[ev.Ph]:
			return fmt.Errorf("%s: event %d (%s) has unexpected phase %q", path, i, ev.Name, ev.Ph)
		case ev.Ph != "M" && ev.TS < 0:
			return fmt.Errorf("%s: event %d (%s) has negative ts", path, i, ev.Name)
		case ev.Ph == "X" && ev.Dur <= 0:
			return fmt.Errorf("%s: span %d (%s) has non-positive dur", path, i, ev.Name)
		}
	}
	fmt.Printf("tracecheck: %s: %d events well-formed\n", path, len(t.TraceEvents))
	if requireBypass {
		inside, burns, err := insideBurns(t.TraceEvents, func(name string) bool { return receiveSide[name] })
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if inside == 0 {
			return fmt.Errorf("%s: no receive-side match-done/deliver/event-post instants inside any of %d compute-burn spans — the application-bypass claim is not visible in this capture", path, burns)
		}
		fmt.Printf("tracecheck: %s: %d receive-side instants inside %d compute-burn spans (application bypass visible)\n",
			path, inside, burns)
	}
	if requireOffload {
		inside, burns, err := insideBurns(t.TraceEvents, func(name string) bool { return name == "trig-fire" })
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if inside == 0 {
			return fmt.Errorf("%s: no trig-fire instants inside any of %d compute-burn spans — the offloaded-collective claim is not visible in this capture", path, burns)
		}
		fmt.Printf("tracecheck: %s: %d trig-fire instants inside %d compute-burn spans (NIC-offloaded progression visible)\n",
			path, inside, burns)
	}
	return nil
}

// insideBurns is trace.InsideBurns with zero burn spans an error: such a
// capture was not produced by a burn-bracketing driver.
func insideBurns(evs []trace.ChromeEvent, want func(name string) bool) (inside, burns int, err error) {
	inside, burns = trace.InsideBurns(evs, want)
	if burns == 0 {
		return 0, 0, fmt.Errorf("no compute-burn spans (run the capture through `sweep bypass` or `sweep collbench` with -trace)")
	}
	return inside, burns, nil
}

var (
	helpLine = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .*$`)
	typeLine = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	// sampleLine: name, optional {labels}, value. Label values may contain
	// escaped quotes, so the body match is deliberately permissive; pair
	// balance is checked structurally below.
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$`)
)

// histSuffixes lets _bucket/_sum/_count samples resolve to their declared
// histogram family.
var histSuffixes = []string{"_bucket", "_sum", "_count"}

func checkMetrics(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	typed := map[string]string{} // family -> TYPE
	samples := 0
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := typeLine.FindStringSubmatch(line); m != nil {
				typed[m[1]] = m[2]
				continue
			}
			if helpLine.MatchString(line) || strings.HasPrefix(line, "# ") {
				continue
			}
			return fmt.Errorf("%s:%d: malformed comment line %q", path, i+1, line)
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("%s:%d: not a valid sample line: %q", path, i+1, line)
		}
		name, labels, value := m[1], m[2], m[3]
		family := name
		if _, ok := typed[family]; !ok {
			for _, suf := range histSuffixes {
				if base := strings.TrimSuffix(name, suf); base != name {
					if ty, ok := typed[base]; ok && ty == "histogram" {
						family = base
					}
				}
			}
		}
		if _, ok := typed[family]; !ok {
			return fmt.Errorf("%s:%d: sample %q has no preceding # TYPE", path, i+1, name)
		}
		if labels != "" && (!strings.HasPrefix(labels, "{") || !strings.HasSuffix(labels, "}")) {
			return fmt.Errorf("%s:%d: malformed label set %q", path, i+1, labels)
		}
		if _, err := strconv.ParseFloat(strings.TrimPrefix(value, "+"), 64); err != nil {
			return fmt.Errorf("%s:%d: value %q is not a float: %v", path, i+1, value, err)
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("%s: no samples (was the registry populated?)", path)
	}
	fmt.Printf("tracecheck: %s: %d samples across %d families well-formed\n", path, samples, len(typed))
	return nil
}

func main() {
	tracePath := flag.String("trace", "", "Chrome Trace Event JSON file to validate")
	metricsPath := flag.String("metrics", "", "Prometheus text exposition file to validate")
	requireBypass := flag.Bool("require-bypass", false,
		"require receive-side instants inside compute-burn spans (the §5.1 claim)")
	requireOffload := flag.Bool("require-offload", false,
		"require trig-fire instants inside compute-burn spans (the triggered-operations claim)")
	flag.Parse()
	if *tracePath == "" && *metricsPath == "" {
		fmt.Fprintln(os.Stderr, "tracecheck: nothing to do; pass -trace and/or -metrics")
		os.Exit(2)
	}
	if *tracePath != "" {
		if err := checkTrace(*tracePath, *requireBypass, *requireOffload); err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			os.Exit(1)
		}
	}
	if *metricsPath != "" {
		if err := checkMetrics(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			os.Exit(1)
		}
	}
}
