package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef names one reported metric. The same tables drive what a run
// prints and what BENCHMARK.json declares; smoke_test.go asserts the two
// agree in both directions.
type metricDef struct {
	name string
	unit string
	// pick is the quantile of the run's per-slice (or per-set-up) values
	// an end-to-end metric reports; unused for per-layer metrics.
	pick float64
}

// endToEnd are the metrics a user of the message path sees, measured with
// tracing off. Every one is reported on every workload and is never zero.
var endToEnd = []metricDef{
	{"setup_s", "s", bestShare},
	{"op_p50_us", "us", bestShare},
	{"allocs_per_op", "count", 0.5},
	{"alloc_bytes_per_op", "B", 0.5},
	{"heap_mb", "MiB", 0.5},
}

// perLayer are the single-layer metrics of the traced run. A value of 0
// means "not applicable on this workload" (rtscts.* on loopback, mpi.* off
// the MPI workload, ...); README.md lists which end-to-end metric each one
// should move, and where.
var perLayer = []metricDef{
	{name: "portals.put_call_ns", unit: "ns"},
	{name: "portals.eq_wait_ns", unit: "ns"},
	{name: "portals.op_p99_us", unit: "us"},
	{name: "portals.op_samples", unit: "count"},
	{name: "portals.ops_per_s", unit: "1/s"},
	{name: "portals.payload_MBps", unit: "MB/s"},
	{name: "portals.setup_ni_us", unit: "us"},
	{name: "wire.encode_ns", unit: "ns"},
	{name: "wire.decode_ns", unit: "ns"},
	{name: "core.start_put_ns", unit: "ns"},
	{name: "core.handle_put_ns", unit: "ns"},
	{name: "core.handle_ack_ns", unit: "ns"},
	{name: "core.start_get_ns", unit: "ns"},
	{name: "core.handle_get_ns", unit: "ns"},
	{name: "core.handle_reply_ns", unit: "ns"},
	{name: "core.match_steps_per_msg", unit: "count"},
	{name: "core.index_hit_ratio", unit: "ratio"},
	{name: "core.drops", unit: "count"},
	{name: "eventq.post_ns", unit: "ns"},
	{name: "eventq.get_ns", unit: "ns"},
	{name: "eventq.poll_wake_ns", unit: "ns"},
	{name: "eventq.poll_allocs", unit: "count"},
	{name: "nicsim.send_call_ns", unit: "ns"},
	{name: "nicsim.residual_ns", unit: "ns"},
	{name: "nicsim.lane_burst_msgs_mean", unit: "count"},
	{name: "nicsim.interrupts_per_msg", unit: "count"},
	{name: "bufpool.gets_per_op", unit: "count"},
	{name: "bufpool.hit_ratio", unit: "ratio"},
	{name: "transport.send_call_ns", unit: "ns"},
	{name: "transport.oneway_ns", unit: "ns"},
	{name: "transport.oneway_ctl_ns", unit: "ns"},
	{name: "transport.allocs_per_msg", unit: "count"},
	{name: "transport.alloc_bytes_per_msg", unit: "B"},
	{name: "rtscts.pkts_per_msg", unit: "count"},
	{name: "rtscts.acks_per_msg", unit: "count"},
	{name: "rtscts.retransmits_per_msg", unit: "count"},
	{name: "rtscts.fast_retransmit_share", unit: "ratio"},
	{name: "rtscts.dups_per_msg", unit: "count"},
	{name: "rtscts.rts_per_msg", unit: "count"},
	{name: "rtscts.useful_pkt_ratio", unit: "ratio"},
	{name: "simnet.lost_per_msg", unit: "count"},
	{name: "simnet.delivered_ratio", unit: "ratio"},
	{name: "udp.datagrams_per_syscall", unit: "count"},
	{name: "udp.tx_drops", unit: "count"},
	{name: "mpi.send_call_ns", unit: "ns"},
	{name: "mpi.recv_wait_ns", unit: "ns"},
	{name: "mpi.over_portals_ns", unit: "ns"},
	{name: "host.cpu_us_per_op", unit: "us"},
	{name: "host.calib_ns", unit: "ns"},
	{name: "host.trace_overhead_pct", unit: "%"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract with the driver: the last line of a run's
// standard output is exactly this object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render turns measured values into the result line's metric map with the
// units of defs. A metric a run did not produce is reported as 0 so the
// key set is the same on every workload.
func render(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// median and minMax summarize repeated measurements; the slice is not
// modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
