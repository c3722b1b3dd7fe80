package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Exporters run off the hot path (after Disable, or on a snapshot) and are
// free to allocate and block — portalsvet's bypassviolation check flags
// them if they ever appear on a delivery path.

// ChromeEvent is one Trace Event Format entry
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// ts/dur are microseconds; pid/tid pick the Perfetto track.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  uint32         `json:"pid"`
	TID  uint64         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the file WriteChromeTrace writes and cmd/tracecheck reads.
type ChromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []ChromeEvent `json:"traceEvents"`
}

type spanKey struct {
	nid uint32
	pid uint32
	seq uint64
}

// tid folds (PID, Seq) into one Perfetto thread track per span so a
// message's instants line up on one row under its node's process.
func (k spanKey) tid() uint64 { return uint64(k.pid)*1_000_000 + k.seq%1_000_000 }

func usec(ns int64) float64 { return float64(ns) / 1000.0 }

// WriteChromeTrace renders records as Chrome Trace Event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, recs []Entry) error {
	return json.NewEncoder(w).Encode(ChromeTrace{DisplayTimeUnit: "ns", TraceEvents: ChromeEvents(recs)})
}

// ChromeEvents renders records as trace events. Each (NID, PID, seq) span
// becomes an "X" duration event from its first to last record with an "i"
// instant per stage; burn-start/burn-end pairs become "compute burn"
// duration events. Nodes map to Perfetto processes, spans to threads.
func ChromeEvents(recs []Entry) []ChromeEvent {
	byKey := make(map[spanKey][]Entry)
	var keys []spanKey
	for _, r := range recs {
		k := spanKey{nid: r.NID, pid: r.PID, seq: r.Seq}
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], r)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.nid != b.nid {
			return a.nid < b.nid
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		return a.seq < b.seq
	})

	var evs []ChromeEvent
	seenNode := make(map[uint32]bool)
	for _, k := range keys {
		if !seenNode[k.nid] {
			seenNode[k.nid] = true
			evs = append(evs, ChromeEvent{
				Name: "process_name", Ph: "M", PID: k.nid,
				Args: map[string]any{"name": fmt.Sprintf("node %d", k.nid)},
			})
		}
		group := byKey[k]
		sortRecords(group)
		evs = append(evs, ChromeEvent{
			Name: "thread_name", Ph: "M", PID: k.nid, TID: k.tid(),
			Args: map[string]any{"name": spanName(k, group)},
		})
		evs = append(evs, spanEvents(k, group)...)
	}
	return evs
}

// InsideBurns counts the "compute burn" spans in evs and the instants want
// accepts that land inside one on the same node: work the delivery engine
// did while the application made no library call. It is the evidence behind
// the application-bypass claim (receive-side instants, cmd/tracecheck
// -require-bypass) and the offloaded-collective claim (trig-fire instants,
// -require-offload and TestOffloadHidesCollectiveLatency).
func InsideBurns(evs []ChromeEvent, want func(name string) bool) (inside, burns int) {
	for _, b := range evs {
		if b.Ph != "X" || b.Name != "compute burn" {
			continue
		}
		burns++
		for _, e := range evs {
			if e.Ph == "i" && want(e.Name) && e.PID == b.PID &&
				e.TS >= b.TS && e.TS <= b.TS+b.Dur {
				inside++
			}
		}
	}
	return inside, burns
}

func spanName(k spanKey, group []Entry) string {
	for _, r := range group {
		if r.Stage == StageAppBurnStart || r.Stage == StageAppBurnEnd {
			return fmt.Sprintf("burn %d.%d iter %d", k.nid, k.pid, k.seq)
		}
	}
	if k.pid == 0 {
		return fmt.Sprintf("wire %d pkt %d", k.nid, k.seq)
	}
	return fmt.Sprintf("msg %d.%d #%d", k.nid, k.pid, k.seq)
}

func spanEvents(k spanKey, group []Entry) []ChromeEvent {
	var evs []ChromeEvent
	// Burn pairs render as named duration events; everything else renders
	// as one span-wide "X" plus per-stage instants.
	var burnStart *Entry
	var first, last int64
	havePath := false
	for i := range group {
		r := group[i]
		switch r.Stage {
		case StageAppBurnStart:
			burnStart = &group[i]
		case StageAppBurnEnd:
			start := r.TS
			if burnStart != nil {
				start = burnStart.TS
				burnStart = nil
			}
			evs = append(evs, ChromeEvent{
				Name: "compute burn", Cat: "app", Ph: "X",
				TS: usec(start), Dur: usec(r.TS - start),
				PID: k.nid, TID: k.tid(),
				Args: map[string]any{"iter": r.Seq},
			})
		default:
			if !havePath {
				first = r.TS
				havePath = true
			}
			last = r.TS
			evs = append(evs, ChromeEvent{
				Name: r.Stage.String(), Cat: "portals", Ph: "i",
				TS: usec(r.TS), PID: k.nid, TID: k.tid(), S: "t",
				Args: map[string]any{"arg": r.Arg, "seq": r.Seq},
			})
		}
	}
	// A burn-start with no matching end (snapshot taken mid-burn) still
	// deserves a mark.
	if burnStart != nil {
		evs = append(evs, ChromeEvent{
			Name: "burn-start", Cat: "app", Ph: "i",
			TS: usec(burnStart.TS), PID: k.nid, TID: k.tid(), S: "t",
		})
	}
	if havePath {
		span := ChromeEvent{
			Name: spanName(k, group), Cat: "portals", Ph: "X",
			TS: usec(first), Dur: usec(last - first),
			PID: k.nid, TID: k.tid(),
			Args: map[string]any{"records": len(group)},
		}
		// Perfetto hides zero-duration X events; give single-record spans a
		// sliver of width.
		if span.Dur == 0 {
			span.Dur = 0.001
		}
		evs = append([]ChromeEvent{span}, evs...)
	}
	return evs
}

// WriteDump renders records as human-readable text, one line per record,
// ordered by timestamp.
func WriteDump(w io.Writer, recs []Entry) error {
	sorted := make([]Entry, len(recs))
	copy(sorted, recs)
	sortRecords(sorted)
	for _, r := range sorted {
		_, err := fmt.Fprintf(w, "t=+%dns node=%d pid=%d seq=%d stage=%s arg=%d\n",
			r.TS, r.NID, r.PID, r.Seq, r.Stage, r.Arg)
		if err != nil {
			return err
		}
	}
	return nil
}
