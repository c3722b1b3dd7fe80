package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded by the benchmark around its own calls into the
// layers — nothing inside the program under test is instrumented. They
// live in a pre-sized buffer and are written out when the run ends.

type spanKind uint8

const (
	spanOp    spanKind = iota // issue → completion of one operation (root)
	spanIssue                 // inside Put/Get (or MPI Send)
	spanWait                  // blocked in EQPoll (or MPI Recv) for a completion
)

var spanNames = [...]string{spanOp: "op", spanIssue: "issue", spanWait: "wait"}

// spanCap bounds one driver's span buffer; once full, later operations of
// the traced window run unrecorded.
const spanCap = 1 << 16

type span struct {
	kind   spanKind
	op     uint64 // operation number; spans of one operation share it
	parent int32  // index of the causing span in the same buffer, -1 for a root
	start  int64  // ns since the tracer's epoch
	end    int64
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, spanCap)}
}

// open starts a root span and returns its index, or -1 when the buffer is
// full.
func (t *tracer) open(kind spanKind, op uint64, start time.Time) int32 {
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{kind: kind, op: op, parent: -1, start: start.Sub(t.epoch).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(idx int32, end time.Time) {
	if idx >= 0 {
		t.spans[idx].end = end.Sub(t.epoch).Nanoseconds()
	}
}

// add records a finished child span; children of an unrecorded parent are
// dropped with it.
func (t *tracer) add(kind spanKind, parent int32, start, end time.Time) {
	if parent < 0 || len(t.spans) == cap(t.spans) {
		return
	}
	t.spans = append(t.spans, span{
		kind: kind, op: t.spans[parent].op, parent: parent,
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds(),
	})
}

// durations returns the lengths in ns of every finished span of a kind.
func durations(tracers []*tracer, kind spanKind) []float64 {
	var out []float64
	for _, t := range tracers {
		for i := range t.spans {
			if s := &t.spans[i]; s.kind == kind && s.end != 0 {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	return out
}

// writeSpans dumps the buffers as CSV: driver,index,name,op,parent,start_ns,end_ns.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "driver,index,name,op,parent,start_ns,end_ns")
	for d, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", d, i, spanNames[s.kind], s.op, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
