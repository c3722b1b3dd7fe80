package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// rtscts puts a 20-byte header on every packet and udp an 8-byte frame
// header on every datagram (default MTU 8192); neither constant is
// exported, and they matter only to rtscts.useful_pkt_ratio.
const (
	rtsctsPktHeader = 20
	udpChunk        = 8192 - 8 - rtsctsPktHeader
)

// chunk is the payload one packet of the fabric carries, 0 off rtscts.
func (f fabricSpec) chunk() int {
	switch f.kind {
	case "simnet":
		return f.sim.MTU - rtsctsPktHeader
	case "udp":
		return udpChunk
	}
	return 0
}

// traced is the per-layer run. Everything is measured from outside the
// program: spans around the workload's own API calls, the layer ladder,
// the bare-transport probe, and deltas of the layers' public counters.
func traced(w *workload, cfg runConfig, outDir string) *result {
	res := &result{
		Workload: w.name, Trace: true, Seed: cfg.seed, Seconds: cfg.seconds, Fabric: w.fabric.label(),
		Values: map[string]float64{}, Env: captureEnv(),
	}
	v := res.Values
	v["host.calib_ns"] = calibrate()

	inst, _, rate, err := setUp(w, cfg.seed)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	v["portals.setup_ni_us"] = float64(inst.buildTime.Nanoseconds()) / 1e3 / float64(inst.nis)

	// Two windows on the same build: tracing off, then on. Their latency
	// difference is what the spans cost.
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	stride := strideFor(rate, half.Seconds(), len(inst.loops))
	plain := drive(inst, limit{until: time.Now().Add(half)}, stride, nil, nil)
	before := inst.snapshot()
	epoch := time.Now()
	tracers := make([]*tracer, len(inst.loops))
	for i := range tracers {
		tracers[i] = newTracer(epoch)
	}
	spanned := drive(inst, limit{until: time.Now().Add(half)}, stride, tracers, nil)
	delta := inst.snapshot().sub(before)
	for _, win := range []*window{plain, spanned} {
		res.Attempted += win.attempted
		res.Failed += win.failed
		if win.err != nil && res.Error == "" {
			res.Error = win.err.Error()
		}
	}
	finish(res, inst)
	if !res.correct() {
		return res
	}

	p50 := plain.latQuantileNs(0.5)
	v["portals.op_p99_us"] = plain.latQuantileNs(0.99) / 1e3
	v["portals.op_samples"] = float64(len(plain.lat))
	v["portals.ops_per_s"] = plain.opsPerSec()
	v["portals.payload_MBps"] = float64(plain.bytes) / plain.wall.Seconds() / 1e6
	v["host.cpu_us_per_op"] = float64(plain.cpu.Nanoseconds()) / 1e3 / float64(plain.completed)
	v["host.trace_overhead_pct"] = (spanned.latQuantileNs(0.5) - p50) / p50 * 100
	issue, wait := median(durations(tracers, spanIssue)), median(durations(tracers, spanWait))
	if w.mpi {
		v["mpi.send_call_ns"], v["mpi.recv_wait_ns"] = issue, wait
	} else {
		v["portals.put_call_ns"], v["portals.eq_wait_ns"] = issue, wait
	}
	layerCounters(w, delta, float64(spanned.completed), v)

	fail := func(err error) *result {
		res.Error = err.Error()
		return res
	}
	if err := runLadder(w.ladder, w.size, cfg.seed, v); err != nil {
		return fail(err)
	}
	if err := probeTransport(w.fabric, w.size, cfg.seed, v); err != nil {
		return fail(err)
	}
	if w.mpi {
		// The same ping-pong on the same fabric without MPI in between.
		ref := &workload{name: "pp-reference", fabric: w.fabric, size: w.size, warmupOps: 2_000, build: buildPingPong}
		refInst, _, refRate, err := setUp(ref, cfg.seed)
		if err != nil {
			return fail(err)
		}
		win := drive(refInst, limit{until: time.Now().Add(half / 2)}, strideFor(refRate, half.Seconds()/2, 1), nil, nil)
		refRes := &result{Attempted: win.attempted, Failed: win.failed}
		if win.err != nil {
			refRes.Error = win.err.Error()
		}
		finish(refRes, refInst)
		if !refRes.correct() {
			return fail(fmt.Errorf("reference ping-pong: %d failed: %s", refRes.Failed, refRes.Error))
		}
		v["mpi.over_portals_ns"] = p50 - win.latQuantileNs(0.5)
	} else {
		// Node.Send is not reachable from outside Put; what Put spends
		// beyond StartPut is the send call (plus the triggered-op drain).
		v["nicsim.send_call_ns"] = v["portals.put_call_ns"] - v["core.start_put_ns"]
	}

	// The ladder rows of the operation's blocking chain, taken off the
	// measured latency; what is left is dispatch, lane hops, scheduling
	// and (for windows above 1) queueing.
	leg := v["core.start_put_ns"] + v["transport.oneway_ns"] + v["core.handle_put_ns"] + v["eventq.poll_wake_ns"]
	switch w.chain {
	case chainPingPong:
		v["nicsim.residual_ns"] = p50/2 - leg
	case chainPutAck:
		v["nicsim.residual_ns"] = p50 - leg - v["transport.oneway_ctl_ns"] - v["core.handle_ack_ns"]
	}

	if err := writeSpans(filepath.Join(outDir, w.name+"-spans.csv"), tracers); err != nil {
		return fail(err)
	}
	return res
}

// layerCounters turns the traced window's counter deltas into per-layer
// ratios. ops is the number of operations the window completed.
func layerCounters(w *workload, d counters, ops float64, v map[string]float64) {
	v["core.match_steps_per_msg"] = ratio(d["portals_match_steps_total"], d["portals_match_walks_total"])
	hits, misses := d["portals_match_index_hits_total"], d["portals_match_index_misses_total"]
	v["core.index_hit_ratio"] = ratio(hits, hits+misses)
	v["core.drops"] = d["portals_dropped_total"]
	v["nicsim.lane_burst_msgs_mean"] = ratio(d["portals_lane_burst_msgs_sum"], d["portals_lane_burst_msgs_count"])
	v["nicsim.interrupts_per_msg"] = ratio(d["portals_interrupts_total"], d["portals_recv_msgs_total"])
	v["bufpool.gets_per_op"] = ratio(d["bufpool_gets"], ops)
	v["bufpool.hit_ratio"] = ratio(d["bufpool_hits"], d["bufpool_gets"])

	msgs := d["portals_rtscts_delivered_total"]
	if msgs == 0 {
		return // no reliability layer under this workload
	}
	pkts := d["portals_fabric_sent_total"]
	if w.fabric.kind == "udp" {
		pkts = d["portals_udp_sent_total"]
		v["udp.datagrams_per_syscall"] = ratio(pkts, d["portals_udp_send_bursts_total"])
		v["udp.tx_drops"] = d["portals_udp_tx_drops_total"]
	} else {
		v["simnet.lost_per_msg"] = d["portals_fabric_lost_total"] / msgs
		v["simnet.delivered_ratio"] = ratio(d["portals_fabric_delivered_total"], pkts)
	}
	v["rtscts.pkts_per_msg"] = pkts / msgs
	v["rtscts.acks_per_msg"] = d["portals_rtscts_acks_total"] / msgs
	v["rtscts.retransmits_per_msg"] = d["portals_rtscts_retransmits_total"] / msgs
	v["rtscts.fast_retransmit_share"] = ratio(d["portals_rtscts_fast_retransmits_total"], d["portals_rtscts_retransmits_total"])
	v["rtscts.dups_per_msg"] = d["portals_rtscts_dups_total"] / msgs
	v["rtscts.rts_per_msg"] = d["portals_rtscts_rts_total"] / msgs
	v["rtscts.useful_pkt_ratio"] = ratio(ops*w.minPkts(w.fabric.chunk()), pkts)
}
