package main

import (
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"
)

// sliceTarget is how long one slice of a timed window should last. A
// slice is cut by operation count, so on a slowed machine it lasts longer.
const sliceTarget = 100 * time.Millisecond

// sliceSamples is how many latency samples one slice keeps at most.
const sliceSamples = 512

// bestShare is the quantile, counted from the fast end, at which a run
// reports its timings (per-slice latency medians, set-up times): the best
// tenth. Other tenants of a shared host only ever slow a slice down, and
// do so for seconds at a stretch; the best tenth of a few hundred slices
// is what the code does when left alone, and it still moves with the code.
const bestShare = 0.10

// reading is one look at the process, taken by the lead driver between two
// of its operations.
type reading struct {
	ops     int64 // completed by all drivers so far
	mallocs uint64
	bytes   uint64
	p50     uint32 // median sampled latency since the previous reading, ns
}

// ticker cuts a timed window into slices without stopping the loops: every
// `every` completions of the lead driver it reads the allocator's counters
// (runtime/metrics, no stop-the-world) and takes the median of the
// latencies sampled since the last reading. A slice is what lies between
// two readings.
type ticker struct {
	total   atomic.Int64 // completions of all drivers
	every   int64        // lead completions per slice
	stride  int64        // lead completions per latency sample
	samples [sliceSamples]uint32
	n       int
	ticks   []reading
	probe   [3]metrics.Sample
}

// newTicker sizes a ticker for a window of the given length driven at
// about rate operations per second by each driver.
func newTicker(rate float64, window time.Duration) *ticker {
	every := max(int64(rate*sliceTarget.Seconds()), 1)
	tk := &ticker{
		every: every, stride: every/sliceSamples + 1,
		// Room for a rate four times the warm-up's; past it, readings stop.
		ticks: make([]reading, 0, 4*int(window/sliceTarget)+16),
	}
	tk.probe[0].Name = "/gc/heap/allocs:objects"
	tk.probe[1].Name = "/gc/heap/tiny/allocs:objects" // MemStats.Mallocs counts these too
	tk.probe[2].Name = "/gc/heap/allocs:bytes"
	return tk
}

// start takes the reading that opens the first slice.
func (tk *ticker) start() { tk.read() }

// observe is called by the lead driver for each of its completions.
func (tk *ticker) observe(ns uint32, completed int64) {
	if completed%tk.stride == 0 && tk.n < sliceSamples {
		tk.samples[tk.n] = ns
		tk.n++
	}
	if completed%tk.every == 0 {
		tk.read()
	}
}

func (tk *ticker) read() {
	if len(tk.ticks) == cap(tk.ticks) {
		return
	}
	r := reading{ops: tk.total.Load()}
	metrics.Read(tk.probe[:])
	r.mallocs = tk.probe[0].Value.Uint64() + tk.probe[1].Value.Uint64()
	r.bytes = tk.probe[2].Value.Uint64()
	if tk.n > 0 {
		s := tk.samples[:tk.n]
		slices.Sort(s)
		r.p50 = s[tk.n/2]
		tk.n = 0
	}
	tk.ticks = append(tk.ticks, r)
}

// each calls f with the figures of every slice that completed work.
func (tk *ticker) each(f func(ops float64, mallocs, bytes uint64, p50ns uint32)) {
	for i := 1; i < len(tk.ticks); i++ {
		a, b := tk.ticks[i-1], tk.ticks[i]
		if b.ops > a.ops {
			f(float64(b.ops-a.ops), b.mallocs-a.mallocs, b.bytes-a.bytes, b.p50)
		}
	}
}

// quantile is the q-quantile of v by linear interpolation; v is not
// modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
