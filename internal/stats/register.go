package stats

import (
	"repro/internal/obs/metrics"
	"repro/internal/types"
)

// RegisterMetrics exposes this interface's counters through an obs
// registry. Every series is a CounterFunc view over the existing atomics —
// the hot paths that bump them are untouched, which is how the §4.8
// counters and the PERF.md fast-path accounting join the Prometheus
// exposition without any new delivery-path cost.
func (c *Counters) RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	for i := 0; i < types.NumDropReasons; i++ {
		reason := types.DropReason(i)
		v := &c.drops[i]
		r.CounterFunc("portals_dropped_total",
			"incoming messages discarded, by §4.8 reason",
			ls.With(metrics.L("reason", reason.String())), v.Load)
	}
	r.CounterFunc("portals_recv_msgs_total", "messages delivered into memory descriptors", ls, c.recvMsgs.Load)
	r.CounterFunc("portals_recv_bytes_total", "payload bytes delivered into memory descriptors", ls, c.recvBytes.Load)
	r.CounterFunc("portals_send_msgs_total", "requests initiated by this interface", ls, c.sendMsgs.Load)
	r.CounterFunc("portals_send_bytes_total", "payload bytes sent by this interface", ls, c.sendBytes.Load)
	r.CounterFunc("portals_interrupts_total", "host interrupts taken on the receive path", ls, c.interrupt.Load)
	r.CounterFunc("portals_acks_total", "acknowledgments generated", ls, c.acks.Load)
	r.CounterFunc("portals_replies_total", "replies generated", ls, c.replies.Load)
	r.CounterFunc("portals_match_walks_total", "Figure-4 translation walks", ls, c.matchWalks.Load)
	r.CounterFunc("portals_match_steps_total", "match entries examined across all walks", ls, c.matchSteps.Load)
	r.CounterFunc("portals_match_index_hits_total", "walks resolved from a hash bucket", ls, c.indexHits.Load)
	r.CounterFunc("portals_match_index_misses_total", "walks resolved from the wildcard list or unmatched", ls, c.indexMisses.Load)
	r.CounterFunc("portals_ct_increments_total", "counting-event advances (core/ct.go)", ls, c.ctIncs.Load)
	r.CounterFunc("portals_trig_armed_total", "triggered operations armed on counters", ls, c.trigArmed.Load)
	r.CounterFunc("portals_trig_fired_total", "triggered operations fired on the delivery path", ls, c.trigFired.Load)
	r.CounterFunc("portals_trig_dropped_total", "triggered operations discarded (teardown with ops armed, stale descriptor/counter)", ls, c.trigDropped.Load)
}
