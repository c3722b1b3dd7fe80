package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestWraparound drives the ring past capacity and checks that the
// survivors are exactly the newest window, in order.
func TestWraparound(t *testing.T) {
	r := New()
	const total = ringSize + 100
	for i := 0; i < total; i++ {
		r.Record(StageDeliver, 1, 2, uint64(i), uint64(i)*10)
	}
	recs := r.Snapshot()
	if len(recs) != ringSize {
		t.Fatalf("snapshot after wrap: got %d records, want %d", len(recs), ringSize)
	}
	// Snapshot sorts by TS; a single writer's TS values are nondecreasing,
	// and the survivors must be the last ringSize seqs.
	for i, rec := range recs {
		want := uint64(total - ringSize + i)
		if rec.Seq != want {
			t.Fatalf("record %d: seq=%d want %d", i, rec.Seq, want)
		}
		if rec.Arg != want*10 {
			t.Fatalf("record %d: arg=%d want %d", i, rec.Arg, want*10)
		}
		if rec.NID != 1 || rec.PID != 2 || rec.Stage != StageDeliver {
			t.Fatalf("record %d: wrong identity %+v", i, rec)
		}
	}
}

// TestConcurrentWriters hammers one recorder from many goroutines (run
// under -race in CI) past the ring's capacity, with snapshots racing the
// writers. No record is dropped: exactly min(capacity, writes) untorn
// records survive, and each writer's survivors are its newest records.
func TestConcurrentWriters(t *testing.T) {
	r := New()
	const writers = 8
	const perWriter = 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Arg encodes the full identity so torn records are
				// detectable below.
				seq := uint64(w)<<32 | uint64(i)
				r.Record(StageMatchDone, uint32(w), uint32(w), seq, seq)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			for _, rec := range r.Snapshot() {
				if rec.Arg != rec.Seq {
					t.Errorf("torn record: seq=%#x arg=%#x", rec.Seq, rec.Arg)
				}
			}
		}
	}()
	wg.Wait()
	<-done
	recs := r.Snapshot()
	if want := min(ringSize, writers*perWriter); len(recs) != want {
		t.Fatalf("%d records survived, want %d", len(recs), want)
	}
	var oldest, count [writers]int
	for w := range oldest {
		oldest[w] = perWriter
	}
	for _, rec := range recs {
		w := int(rec.Seq >> 32)
		if rec.Arg != rec.Seq || uint64(rec.NID) != rec.Seq>>32 || w >= writers {
			t.Fatalf("torn record: nid=%d seq=%#x arg=%#x", rec.NID, rec.Seq, rec.Arg)
		}
		oldest[w] = min(oldest[w], int(uint32(rec.Seq)))
		count[w]++
	}
	// A writer's records land in the order it made them, so what the ring
	// kept of each writer is a suffix of its sequence, each record once.
	for w := range count {
		if count[w] != perWriter-oldest[w] {
			t.Errorf("writer %d: %d survivors, oldest %d; want the %d newest", w, count[w], oldest[w], perWriter-oldest[w])
		}
	}
}

// TestRecordAllocs asserts the hot path never allocates — the core
// application-bypass requirement for the recorder (acceptance criterion).
func TestRecordAllocs(t *testing.T) {
	r := New()
	var seq uint64
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		r.Record(StageDeliver, 1, 1, seq, 64)
	}); n != 0 {
		t.Fatalf("Record allocates %v per op, want 0", n)
	}
	// The package-level disabled path must also be alloc-free.
	if Active() != nil {
		t.Fatal("tracer unexpectedly enabled")
	}
	if n := testing.AllocsPerRun(1000, func() {
		Record(StageDeliver, 1, 1, 1, 64)
	}); n != 0 {
		t.Fatalf("disabled Record allocates %v per op, want 0", n)
	}
}

func TestGlobalEnableDisable(t *testing.T) {
	if Enabled() {
		t.Fatal("tracer enabled at test start")
	}
	r := Enable()
	defer Disable()
	if !Enabled() || Active() != r {
		t.Fatal("Enable did not install the recorder")
	}
	Record(StageAck, 3, 4, 7, 9)
	if got := Disable(); got != r {
		t.Fatalf("Disable returned %p, want %p", got, r)
	}
	if Enabled() {
		t.Fatal("still enabled after Disable")
	}
	Record(StageAck, 3, 4, 8, 9) // must be a no-op, not a panic
	recs := r.Snapshot()
	if len(recs) != 1 || recs[0].Seq != 7 {
		t.Fatalf("snapshot = %+v, want one record with seq 7", recs)
	}
}

// TestChromeTraceSchema validates the export against the Trace Event
// Format: a traceEvents array whose entries all carry name/ph/pid/ts with
// ph one of the phases we emit, plus burn records becoming "X" spans.
func TestChromeTraceSchema(t *testing.T) {
	recs := []Entry{
		{TS: 100, NID: 0, PID: 1, Seq: 1, Stage: StageTxEnqueue, Arg: 4096},
		{TS: 200, NID: 0, PID: 0, Seq: 1, Stage: StageWireTx, Arg: 4176},
		{TS: 300, NID: 0, PID: 1, Seq: 1, Stage: StageMatchStart},
		{TS: 350, NID: 0, PID: 1, Seq: 1, Stage: StageMatchDone, Arg: 3},
		{TS: 400, NID: 0, PID: 1, Seq: 1, Stage: StageDeliver, Arg: 4096},
		{TS: 450, NID: 0, PID: 1, Seq: 1, Stage: StageEventPost, Arg: 1},
		{TS: 150, NID: 1, PID: 1, Seq: 0, Stage: StageAppBurnStart},
		{TS: 500, NID: 1, PID: 1, Seq: 0, Stage: StageAppBurnEnd},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   *float64        `json:"ts"`
			Dur  float64         `json:"dur"`
			PID  *uint32         `json:"pid"`
			TID  *uint64         `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	phases := map[string]bool{"X": true, "i": true, "M": true}
	sawBurn, sawSpan, sawInstant := false, false, false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" {
			t.Errorf("event with empty name: %+v", ev)
		}
		if !phases[ev.Ph] {
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.Ph != "M" && ev.TS == nil {
			t.Errorf("non-metadata event %q missing ts", ev.Name)
		}
		if ev.PID == nil {
			t.Errorf("event %q missing pid", ev.Name)
		}
		if ev.Name == "compute burn" && ev.Ph == "X" {
			sawBurn = true
			if ev.Dur != 0.35 { // (500-150) ns = 0.35 µs
				t.Errorf("compute burn dur = %v µs, want 0.35", ev.Dur)
			}
		}
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "msg ") {
			sawSpan = true
		}
		if ev.Ph == "i" && ev.Name == "match-done" {
			sawInstant = true
		}
	}
	if !sawBurn {
		t.Error("no compute burn X event")
	}
	if !sawSpan {
		t.Error("no message span X event")
	}
	if !sawInstant {
		t.Error("no match-done instant")
	}
}

func TestWriteDump(t *testing.T) {
	recs := []Entry{
		{TS: 200, NID: 1, PID: 1, Seq: 2, Stage: StageDeliver, Arg: 64},
		{TS: 100, NID: 0, PID: 1, Seq: 2, Stage: StageTxEnqueue, Arg: 64},
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, recs); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "stage=tx-enqueue") {
		t.Errorf("dump not TS-sorted: first line %q", lines[0])
	}
	if !strings.Contains(lines[1], "stage=deliver") {
		t.Errorf("second line %q", lines[1])
	}
}

func TestStageString(t *testing.T) {
	if StageMatchDone.String() != "match-done" {
		t.Errorf("StageMatchDone = %q", StageMatchDone)
	}
	if Stage(0).String() != "unknown" || Stage(200).String() != "unknown" {
		t.Error("out-of-range stages should stringify as unknown")
	}
}

// BenchmarkTraceRecord measures the hot-path cost. The Enabled variant is
// the acceptance-criterion number (≤ ~50 ns/op, 0 allocs/op); Disabled is
// the cost every delivery path pays when no one is tracing.
func BenchmarkTraceRecord(b *testing.B) {
	b.Run("Enabled", func(b *testing.B) {
		Enable()
		defer Disable()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Record(StageDeliver, 1, 1, uint64(i), 64)
		}
	})
	b.Run("Disabled", func(b *testing.B) {
		Disable()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Record(StageDeliver, 1, 1, uint64(i), 64)
		}
	})
}
