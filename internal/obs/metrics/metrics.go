// Package metrics is a dependency-free counter/gauge/histogram registry
// with Prometheus text-format exposition and optional expvar publishing.
//
// Collectors are plain structs of sync/atomic values: Add/Set/Observe on a
// hot path is a single atomic RMW, never a lock, never an allocation, so
// they are safe to touch from delivery-engine goroutines (§5.1 application
// bypass — see docs/LINT.md). The Registry itself is mutex-guarded and is
// only touched at registration and exposition time, both off the hot path.
//
// Existing per-layer stats structs (internal/stats, simnet, rtscts, nicsim)
// keep their APIs and register *views* of their atomics via CounterFunc /
// GaugeFunc, so registration adds zero cost to the paths that bump them.
package metrics

import (
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension attached to a series.
type Label struct {
	Key   string
	Value string
}

// Labels is an ordered label set. Use L to build one.
type Labels []Label

// L builds a Labels from alternating key, value strings. It panics on an
// odd count — label sets are static, authored in code, so this is a
// programming error, not a runtime condition.
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("metrics.L: odd number of key/value strings")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// With returns a copy of ls with extra labels appended.
func (ls Labels) With(extra Labels) Labels {
	out := make(Labels, 0, len(ls)+len(extra))
	out = append(out, ls...)
	out = append(out, extra...)
	return out
}

// key returns a canonical (sorted) form used to identify a series within a
// family.
func (ls Labels) key() string {
	if len(ls) == 0 {
		return ""
	}
	sorted := make(Labels, len(ls))
	copy(sorted, ls)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that may go up or down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of log2 buckets: bucket i counts observations v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i-1] (bucket 0 is v == 0).
// 65 covers every uint64.
const histBuckets = 65

// Histogram is a log2-bucketed histogram. Observe is a bucket-index
// computation plus three atomic adds — no locks, no allocation — so it is
// safe on delivery paths. Bucket i has the inclusive upper bound 2^i - 1.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// snapshot returns a consistent-enough copy for exposition (each field is
// individually atomic; cross-field skew is acceptable for monitoring).
func (h *Histogram) snapshot() (buckets [histBuckets]int64, sum, count int64) {
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return buckets, h.sum.Load(), h.count.Load()
}

// kind is the exposition type of a family.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// collector reads the current value(s) of one series.
type collector struct {
	fn   func() int64 // counter/gauge value source
	hist *Histogram   // histogramKind only
}

type series struct {
	labels Labels
	col    collector
}

type family struct {
	name  string
	help  string
	kind  kind
	order []string           // series insertion order (label keys)
	byKey map[string]*series // label key -> series
}

// Registry holds metric families. Registration replaces on duplicate
// (same name + label set), so re-registering a rebuilt layer — e.g. a fresh
// Machine per experiment iteration — is last-writer-wins rather than an
// error or a panic.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry used by cmd-level -metrics flags.
var Default = NewRegistry()

// Registerer is implemented by layers that can attach their stats to a
// registry. Labels identify the instance (node, pid, transport, ...).
type Registerer interface {
	RegisterMetrics(r *Registry, ls Labels)
}

func (r *Registry) register(name, help string, k kind, ls Labels, col collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	key := ls.key()
	s, ok := f.byKey[key]
	if !ok {
		s = &series{labels: ls}
		f.byKey[key] = s
		f.order = append(f.order, key)
	}
	s.col = col
}

// Counter registers (or replaces) a counter series and returns it.
func (r *Registry) Counter(name, help string, ls Labels) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, ls, c.Value)
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — the way existing atomic stats structs register without
// changing their hot paths.
func (r *Registry) CounterFunc(name, help string, ls Labels, fn func() int64) {
	r.register(name, help, counterKind, ls, collector{fn: fn})
}

// Gauge registers (or replaces) a gauge series and returns it.
func (r *Registry) Gauge(name, help string, ls Labels) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, ls, g.Value)
	return g
}

// GaugeFunc registers a gauge series whose value is read from fn at
// exposition time.
func (r *Registry) GaugeFunc(name, help string, ls Labels, fn func() int64) {
	r.register(name, help, gaugeKind, ls, collector{fn: fn})
}

// Histogram registers (or replaces) a histogram series and returns it.
func (r *Registry) Histogram(name, help string, ls Labels) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, help, ls, h)
	return h
}

// RegisterHistogram attaches an existing histogram (e.g. one owned by a
// layer's stats struct) to the registry.
func (r *Registry) RegisterHistogram(name, help string, ls Labels, h *Histogram) {
	r.register(name, help, histogramKind, ls, collector{hist: h})
}

// sample is one rendered series, captured under the lock and formatted
// outside it.
type sample struct {
	family  string
	help    string
	kind    kind
	labels  Labels
	value   int64
	buckets [histBuckets]int64
	sum     int64
	count   int64
}

func (r *Registry) collect() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []sample
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.order {
			s := f.byKey[key]
			smp := sample{family: f.name, help: f.help, kind: f.kind, labels: s.labels}
			if f.kind == histogramKind {
				smp.buckets, smp.sum, smp.count = s.col.hist.snapshot()
			} else {
				smp.value = s.col.fn()
			}
			out = append(out, smp)
		}
	}
	return out
}

func writeLabels(b *strings.Builder, ls Labels, extra Label) {
	if len(ls) == 0 && extra.Key == "" {
		return
	}
	b.WriteByte('{')
	first := true
	for _, l := range ls {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extra.Key != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(extra.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extra.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4). It snapshots under the registry lock and formats/writes
// outside it, so a slow writer never stalls registration.
func (r *Registry) WriteText(w io.Writer) error {
	samples := r.collect()
	var b strings.Builder
	lastFamily := ""
	for _, s := range samples {
		if s.family != lastFamily {
			lastFamily = s.family
			if s.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.family, s.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.family, s.kind)
		}
		switch s.kind {
		case histogramKind:
			cum := int64(0)
			top := 0
			for i, n := range s.buckets {
				if n != 0 {
					top = i
				}
			}
			for i := 0; i <= top; i++ {
				cum += s.buckets[i]
				le := "0"
				if i > 0 {
					le = strconv.FormatUint(1<<uint(i)-1, 10)
				}
				b.WriteString(s.family)
				b.WriteString("_bucket")
				writeLabels(&b, s.labels, Label{Key: "le", Value: le})
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(cum, 10))
				b.WriteByte('\n')
			}
			b.WriteString(s.family)
			b.WriteString("_bucket")
			writeLabels(&b, s.labels, Label{Key: "le", Value: "+Inf"})
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(s.count, 10))
			b.WriteByte('\n')
			b.WriteString(s.family)
			b.WriteString("_sum")
			writeLabels(&b, s.labels, Label{})
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(s.sum, 10))
			b.WriteByte('\n')
			b.WriteString(s.family)
			b.WriteString("_count")
			writeLabels(&b, s.labels, Label{})
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(s.count, 10))
			b.WriteByte('\n')
		default:
			b.WriteString(s.family)
			writeLabels(&b, s.labels, Label{})
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(s.value, 10))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// expvarPublished tracks names already handed to expvar.Publish, which
// panics on duplicates; republishing the same registry name is a no-op.
var (
	expvarMu        sync.Mutex
	expvarPublished = make(map[string]bool)
)

// PublishExpvar exposes the registry under the given expvar name as a
// map of "family{labels}" -> value (histograms expose _sum and _count).
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any {
		out := make(map[string]int64)
		for _, s := range r.collect() {
			var b strings.Builder
			b.WriteString(s.family)
			writeLabels(&b, s.labels, Label{})
			switch s.kind {
			case histogramKind:
				out[b.String()+"_sum"] = s.sum
				out[b.String()+"_count"] = s.count
			default:
				out[b.String()] = s.value
			}
		}
		return out
	}))
}
