package trace

import "sync/atomic"

// active is the process-wide recorder. Instrumentation sites call the
// package-level Enabled/Record so that a disabled tracer costs exactly one
// atomic pointer load and a predicted branch.
var active atomic.Pointer[Recorder]

// Enable installs a fresh recorder and returns it. Any previous recorder
// is detached (its records remain snapshot-able by whoever holds the
// pointer).
func Enable() *Recorder {
	r := New()
	active.Store(r)
	return r
}

// Disable detaches the active recorder, if any, and returns it.
func Disable() *Recorder {
	return active.Swap(nil)
}

// Active returns the installed recorder, or nil.
func Active() *Recorder { return active.Load() }

// Enabled reports whether a recorder is installed. Instrumentation sites
// with several Records (or any argument computation) should hoist one
// Enabled() check so the disabled cost stays a single load+branch.
func Enabled() bool { return active.Load() != nil }

// Record appends to the active recorder; a no-op when tracing is disabled.
//
// Instrumentation sites sit on the delivery path.
func Record(stage Stage, nid, pid uint32, seq, arg uint64) {
	if r := active.Load(); r != nil {
		r.Record(stage, nid, pid, seq, arg)
	}
}
