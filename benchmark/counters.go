package main

import (
	"bufio"
	"strconv"
	"strings"

	"repro/internal/bufpool"
	"repro/internal/obs/metrics"
	"repro/internal/stats"
)

// counters is a flat reading of the layers' public counters: one total
// per metric family, summed over every label set (node, pid, lane, ...).
// Histograms contribute their _sum and _count.
type counters map[string]float64

// readRegistry renders reg in its text exposition format and sums the
// samples by family, then adds the process-wide buffer-pool totals.
func readRegistry(reg *metrics.Registry) counters {
	var text strings.Builder
	_ = reg.WriteText(&text) // a strings.Builder cannot fail
	c := counters{}
	sc := bufio.NewScanner(strings.NewReader(text.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		c[name] += v
	}
	gets, hits, _ := bufpool.Usage()
	c["bufpool_gets"] = float64(gets)
	c["bufpool_hits"] = float64(hits)
	return c
}

// addInterface folds one interface's counters in under the family names
// stats.Counters.RegisterMetrics would have used — for workloads with too
// many interfaces to register one by one.
func (c counters) addInterface(s stats.Snapshot) {
	c["portals_dropped_total"] += float64(s.Dropped)
	c["portals_recv_msgs_total"] += float64(s.RecvMsgs)
	c["portals_interrupts_total"] += float64(s.Interrupts)
	c["portals_match_walks_total"] += float64(s.MatchWalks)
	c["portals_match_steps_total"] += float64(s.MatchSteps)
	c["portals_match_index_hits_total"] += float64(s.IndexHits)
	c["portals_match_index_misses_total"] += float64(s.IndexMisses)
}

// sub returns c − earlier, family by family.
func (c counters) sub(earlier counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - earlier[k]
	}
	return d
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work here).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
