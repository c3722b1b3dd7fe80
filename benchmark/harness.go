package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// opTimeout bounds how long one operation may stay outstanding before it
// counts as failed and the run is abandoned.
const opTimeout = 20 * time.Second

// maxWindow is the largest closed-loop window any workload uses.
const maxWindow = 64

// sampleCap is the per-driver latency sample buffer of one slice; above it
// the loop records every stride-th operation. Kept small so the harness's
// own heap does not dilute the collector's share of cpu_us_per_op.
const sampleCap = 1 << 16

// opSource is one driver's view of a workload: it starts operations in
// window slots and blocks for completions, verifying each one's bytes.
type opSource interface {
	// issue starts operation number seq in slot.
	issue(slot int, seq uint64) error
	// complete blocks until an outstanding operation finishes, checks its
	// outputs, and returns its slot.
	complete() (slot int, err error)
}

// loop is one closed loop: a driver goroutine keeps window operations
// outstanding and issues the next only when one completes.
type loop struct {
	src     opSource
	window  int
	payload int    // useful bytes per completed operation
	seq     uint64 // operations issued so far, across warm-up and slices
}

// limit ends a loop run by count (warm-up) or by deadline (timed slice).
type limit struct {
	ops   int64
	until time.Time
}

func (l limit) reached(issued int64, now time.Time) bool {
	if l.ops > 0 {
		return issued >= l.ops
	}
	return !now.Before(l.until)
}

// recorder collects one driver's results for one loop run.
type recorder struct {
	lat       []uint32 // sampled latencies, ns
	stride    int64
	attempted int64
	completed int64
	failed    int64
	err       error
	tr        *tracer // nil unless this is the traced window
	tk        *ticker // nil unless the window is cut into slices
	lead      bool    // this driver takes the ticker's readings
}

func (r *recorder) observe(d time.Duration) {
	r.completed++
	ns := d.Nanoseconds()
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	if r.tk != nil {
		r.tk.total.Add(1)
		if r.lead {
			r.tk.observe(uint32(ns), r.completed)
		}
	}
	if r.completed%r.stride != 0 || len(r.lat) == cap(r.lat) {
		return
	}
	r.lat = append(r.lat, uint32(ns))
}

// run drives the loop until lim is reached and every issued operation has
// completed. The first failed operation abandons the run: whatever is
// still outstanding counts as failed too.
func (l *loop) run(lim limit, rec *recorder) {
	var started [maxWindow]time.Time
	var opSpan [maxWindow]int32
	outstanding := 0
	issue := func(slot int) bool {
		t0 := time.Now()
		started[slot] = t0
		seq := l.seq
		l.seq++
		rec.attempted++
		err := l.src.issue(slot, seq)
		if rec.tr != nil {
			t1 := time.Now()
			opSpan[slot] = rec.tr.open(spanOp, seq, t0)
			rec.tr.add(spanIssue, opSpan[slot], t0, t1)
		}
		if err != nil {
			rec.err = fmt.Errorf("op %d issue: %w", seq, err)
			return false
		}
		outstanding++
		return true
	}
	for s := 0; s < l.window; s++ {
		if s > 0 && lim.reached(rec.attempted, time.Now()) {
			break
		}
		if !issue(s) {
			break
		}
	}
	for outstanding > 0 && rec.err == nil {
		var w0 time.Time
		if rec.tr != nil {
			w0 = time.Now()
		}
		slot, err := l.src.complete()
		now := time.Now()
		if err != nil {
			rec.err = err
			break
		}
		outstanding--
		rec.observe(now.Sub(started[slot]))
		if rec.tr != nil {
			rec.tr.add(spanWait, opSpan[slot], w0, now)
			rec.tr.close(opSpan[slot], now)
		}
		if !lim.reached(rec.attempted, now) {
			issue(slot)
		}
	}
	rec.failed = rec.attempted - rec.completed
}

// instance is one built workload: fabric up, interfaces initialised,
// descriptors attached, ready to drive.
type instance struct {
	loops []*loop
	// nis is how many Portals interfaces set-up built.
	nis int
	// buildTime is the part of set-up before warm-up.
	buildTime time.Duration
	// snapshot reads every layer's public counters; called only outside
	// timed windows.
	snapshot func() counters
	// check verifies the drain-time invariants (drop counters, peers'
	// own verification results).
	check func() error
	// close stops every goroutine the workload started and waits for them.
	close func() error
}

// window is what one timed run of all loops measured.
type window struct {
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	attempted  int64
	completed  int64
	failed     int64
	bytes      int64
	lat        []uint32 // merged samples, sorted
	err        error
}

func (w *window) opsPerSec() float64 { return float64(w.completed) / w.wall.Seconds() }

func (w *window) latQuantileNs(q float64) float64 {
	if len(w.lat) == 0 {
		return 0
	}
	return float64(w.lat[int(q*float64(len(w.lat)-1))])
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs every loop of inst once under lim, one goroutine per loop,
// and measures the process around them. tracers, when non-nil, holds one
// span buffer per loop.
func drive(inst *instance, lim limit, stride int64, tracers []*tracer, tk *ticker) *window {
	recs := make([]*recorder, len(inst.loops))
	for i := range recs {
		recs[i] = &recorder{lat: make([]uint32, 0, sampleCap), stride: stride, tk: tk, lead: i == 0}
		if tracers != nil {
			recs[i].tr = tracers[i]
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, l := range inst.loops {
		wg.Add(1)
		go func(l *loop, rec *recorder) {
			defer wg.Done()
			l.run(lim, rec)
		}(l, recs[i])
	}
	wg.Wait()
	w := &window{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for i, rec := range recs {
		w.attempted += rec.attempted
		w.completed += rec.completed
		w.failed += rec.failed
		w.bytes += rec.completed * int64(inst.loops[i].payload)
		w.lat = append(w.lat, rec.lat...)
		if rec.err != nil && w.err == nil {
			w.err = rec.err
		}
	}
	sort.Slice(w.lat, func(i, j int) bool { return w.lat[i] < w.lat[j] })
	return w
}

// runConfig sizes one run of one workload in this process.
type runConfig struct {
	seed    int64
	seconds float64
}

// setups is how many times a run repeats set-up (build + warm-up): once
// per three timed seconds, at most twelve times. Each build is driven for
// its share of the timed seconds.
func (c runConfig) setups() int { return min(max(int(c.seconds/3), 1), 12) }

// result is everything one run produced.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Fabric    string             `json:"fabric"`
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	Error     string             `json:"error,omitempty"`
	Values    map[string]float64 `json:"values"`
	// Spread holds, per end-to-end metric, the per-slice (or per-set-up)
	// values the median was taken over.
	Spread map[string][]float64 `json:"spread,omitempty"`
	Env    environment          `json:"env"`
}

func (r *result) correct() bool { return r.Failed == 0 && r.Error == "" }

// seal makes the counts fit the result line's contract: at least one
// operation attempted, and a run that ended in an error has a failure.
func (r *result) seal() {
	if r.Error != "" && r.Failed == 0 {
		r.Failed = 1
	}
	if r.Attempted < r.Failed {
		r.Attempted = r.Failed
	}
}

// setUp builds the workload and runs its fixed-count warm-up. It returns
// the instance, the wall time of build + warm-up, and the warm-up's
// measured operation rate (used to size latency sampling).
func setUp(w *workload, seed int64) (*instance, time.Duration, float64, error) {
	t0 := time.Now()
	inst, err := w.build(w, seed)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("build: %w", err)
	}
	inst.buildTime = time.Since(t0)
	per := int64(w.warmupOps / len(inst.loops))
	warm := drive(inst, limit{ops: per}, 1<<30, nil, nil)
	if warm.err != nil || warm.failed != 0 {
		err := fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.attempted, warm.err)
		return nil, 0, 0, errors.Join(err, inst.close())
	}
	return inst, time.Since(t0), warm.opsPerSec(), nil
}

// strideFor picks the latency sampling stride so one slice's samples fit
// the sample buffer.
func strideFor(rate, sliceSeconds float64, loops int) int64 {
	perLoop := rate * sliceSeconds / float64(loops)
	return int64(perLoop/sampleCap) + 1
}

// measure is the untraced run. Set-up is repeated cfg.setups() times and
// each build is driven for its share of the timed seconds before it is torn
// down, so one run samples several independently built instances (fresh
// goroutines, sockets, heap layout). Each timed window is cut into slices
// of about sliceTarget by a ticker; res.Spread holds one value per slice
// (per set-up for setup_s and heap_mb), and each metric is the quantile of
// them its definition names.
func measure(w *workload, cfg runConfig) *result {
	res := &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Fabric: w.fabric.label(),
		Values: map[string]float64{}, Spread: map[string][]float64{}, Env: captureEnv(),
	}
	add := func(name string, v float64) { res.Spread[name] = append(res.Spread[name], v) }
	setups := cfg.setups()
	winLen := time.Duration(cfg.seconds / float64(setups) * float64(time.Second))
	for i := 0; i < setups && res.Error == ""; i++ {
		inst, took, rate, err := setUp(w, cfg.seed)
		if err != nil {
			res.Error = err.Error()
			break
		}
		add("setup_s", took.Seconds())
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// Live bytes rather than HeapInuse: span rounding makes the latter
		// wobble by several percent on the sub-MiB heaps of the small
		// workloads.
		add("heap_mb", float64(ms.HeapAlloc)/(1<<20))

		tk := newTicker(rate/float64(len(inst.loops)), winLen)
		tk.start()
		win := drive(inst, limit{until: time.Now().Add(winLen)}, strideFor(rate, winLen.Seconds(), len(inst.loops)), nil, tk)
		res.Attempted += win.attempted
		res.Failed += win.failed
		if win.err != nil {
			res.Error = win.err.Error()
		}
		slice := func(ops float64, mallocs, bytes uint64, p50ns uint32) {
			add("op_p50_us", float64(p50ns)/1e3)
			add("allocs_per_op", float64(mallocs)/ops)
			add("alloc_bytes_per_op", float64(bytes)/ops)
		}
		before := len(res.Spread["op_p50_us"])
		tk.each(slice)
		if len(res.Spread["op_p50_us"]) == before && win.completed > 0 {
			// A window too short for one reading: it is its own slice.
			slice(float64(win.completed), win.mallocs, win.allocBytes, uint32(win.latQuantileNs(0.5)))
		}
		finish(res, inst)
	}
	for _, d := range endToEnd {
		res.Values[d.name] = quantile(res.Spread[d.name], d.pick)
	}
	return res
}

// finish runs the drain-time checks and tears the instance down.
func finish(res *result, inst *instance) {
	if err := inst.check(); err != nil && res.Error == "" {
		res.Error = err.Error()
	}
	if err := inst.close(); err != nil && res.Error == "" {
		res.Error = fmt.Sprintf("close: %v", err)
	}
}
