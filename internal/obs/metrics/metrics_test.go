package metrics

import (
	"bytes"
	"expvar"
	"strings"
	"sync/atomic"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("portals_test_total", "help text", L("node", "1"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // monotone: ignored
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("portals_test_depth", "", L("lane", "0"))
	g.Set(9)
	g.Add(-3)
	if g.Value() != 6 {
		t.Fatalf("gauge = %d, want 6", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 8, -5, 3} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 17 { // -5 clamps to 0
		t.Fatalf("sum = %d, want 17", h.Sum())
	}
	// bucket 0: v==0 (two: 0 and clamped -5); bucket 1: v==1;
	// bucket 2: v in [2,3] (three: 2, 3, 3); bucket 4: v==8.
	want := map[int]int64{0: 2, 1: 1, 2: 3, 4: 1}
	for i := range h.buckets {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("portals_msgs_total", "messages", L("node", "1", "dir", "rx"))
	c.Add(3)
	h := r.Histogram("portals_walk_steps", "match walk length", nil)
	h.Observe(1)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP portals_msgs_total messages\n",
		"# TYPE portals_msgs_total counter\n",
		`portals_msgs_total{node="1",dir="rx"} 3` + "\n",
		"# TYPE portals_walk_steps histogram\n",
		`portals_walk_steps_bucket{le="1"} 1` + "\n",
		`portals_walk_steps_bucket{le="7"} 2` + "\n",
		`portals_walk_steps_bucket{le="+Inf"} 2` + "\n",
		"portals_walk_steps_sum 6\n",
		"portals_walk_steps_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestReplaceOnDuplicate: re-registering the same (name, labels) replaces
// the collector — rebuilding a Machine across experiment iterations must
// not error or double-count.
func TestReplaceOnDuplicate(t *testing.T) {
	r := NewRegistry()
	old := r.Counter("portals_dup_total", "", L("node", "1"))
	old.Add(100)
	fresh := r.Counter("portals_dup_total", "", L("node", "1"))
	fresh.Add(7)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `portals_dup_total{node="1"} 7`) {
		t.Errorf("replacement did not win:\n%s", out)
	}
	if strings.Count(out, "portals_dup_total{") != 1 {
		t.Errorf("duplicate series emitted:\n%s", out)
	}
}

// TestFuncCollectors: existing atomic stats register as views with no
// change to the structs that own them.
func TestFuncCollectors(t *testing.T) {
	r := NewRegistry()
	var recv atomic.Int64
	r.CounterFunc("portals_recv_total", "", nil, recv.Load)
	recv.Store(42)
	var depth atomic.Int64
	r.GaugeFunc("portals_lane_depth", "", L("lane", "2"), depth.Load)
	depth.Store(-3)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "portals_recv_total 42\n") {
		t.Errorf("counter view:\n%s", out)
	}
	if !strings.Contains(out, `portals_lane_depth{lane="2"} -3`) {
		t.Errorf("gauge view:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("portals_esc_total", "", L("path", "a\"b\\c\nd"))
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(buf.String(), `path="a\"b\\c\nd"`) {
		t.Errorf("escaping wrong:\n%s", buf.String())
	}
}

func TestLPanicsOnOddCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("L with odd arg count did not panic")
		}
	}()
	L("key")
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("portals_expvar_total", "", nil)
	c.Add(11)
	r.PublishExpvar("portals_test_registry")
	r.PublishExpvar("portals_test_registry") // dup name: no panic
	v := expvar.Get("portals_test_registry")
	if v == nil {
		t.Fatal("registry not published")
	}
	if !strings.Contains(v.String(), `"portals_expvar_total":11`) {
		t.Errorf("expvar value = %s", v.String())
	}
}

// TestHotPathAllocs: Add/Observe are delivery-path calls and must never
// allocate.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("portals_alloc_total", "", nil)
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(17)
	}); n != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", n)
	}
}
