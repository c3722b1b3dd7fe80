package lint

import (
	"go/types"
	"strings"
)

// This file owns the classification of which calls count as blocking;
// the facts scanner (summary.go) records them in funcFacts.block.

// netBlockingMethods are net-package methods that perform real I/O;
// Close/Addr accessors are deliberately not listed.
var netBlockingMethods = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"ReadFromUDP": true, "WriteToUDP": true, "Accept": true, "AcceptTCP": true,
}

// blockingMethodNames are module-API method names that block by contract
// (the event-queue consumer API and its wrappers).
var blockingMethodNames = map[string]bool{
	"Wait": true, "EQWait": true, "EQPoll": true, "Poll": true,
}

// obsTraceSlowFuncs is the internal/obs/trace surface that is NOT the
// lock-free Record fast path: snapshotting copies and sorts, exporters
// allocate and write, Enable/Disable swap the global recorder. None of it
// belongs on a delivery path — handlers get Record and nothing else.
var obsTraceSlowFuncs = map[string]bool{
	"Snapshot": true, "WriteChromeTrace": true, "WriteDump": true,
	"ChromeEvents": true, "InsideBurns": true,
	"Enable": true, "Disable": true,
}

// obsMetricsSlowFuncs is the internal/obs/metrics surface that takes the
// registry lock or formats output. Registration and exposition run at
// setup/scrape time; delivery paths may only touch already-registered
// Counter/Gauge/Histogram values (Inc/Add/Set/Observe — plain atomics).
var obsMetricsSlowFuncs = map[string]bool{
	"Counter": true, "CounterFunc": true, "Gauge": true, "GaugeFunc": true,
	"Histogram": true, "RegisterHistogram": true, "NewRegistry": true,
	"WriteText": true, "PublishExpvar": true,
}

// classifyBlockingCall decides whether a static callee is a known
// blocking API.
func classifyBlockingCall(fn *types.Func) (factOp, bool) {
	path := pkgPathOf(fn)
	name := fn.Name()
	recv := recvNamed(fn)
	if strings.HasSuffix(path, "internal/obs/trace") && obsTraceSlowFuncs[name] {
		return factOp{desc: "obs/trace exporter API (" + name + ")"}, true
	}
	if strings.HasSuffix(path, "internal/obs/metrics") && obsMetricsSlowFuncs[name] {
		return factOp{desc: "obs/metrics registration/exposition API (" + name + ")"}, true
	}
	switch path {
	case "time":
		if recv == nil && name == "Sleep" {
			return factOp{desc: "time.Sleep"}, true
		}
	case "sync":
		if recv != nil && name == "Wait" {
			switch recv.Obj().Name() {
			case "Cond":
				return factOp{desc: "sync.Cond.Wait", condWait: true}, true
			case "WaitGroup":
				return factOp{desc: "sync.WaitGroup.Wait"}, true
			}
		}
	case "net":
		if recv == nil {
			switch name {
			case "Dial", "DialTimeout", "DialTCP", "DialUDP", "DialUnix", "Listen", "ListenTCP", "ListenPacket":
				return factOp{desc: "net." + name}, true
			}
		} else if netBlockingMethods[name] {
			return factOp{desc: "net I/O (" + recv.Obj().Name() + "." + name + ")"}, true
		}
	}
	// Module-local blocking contracts: Queue.Wait, State.EQWait, NI.EQPoll…
	if recv != nil && blockingMethodNames[name] {
		return factOp{desc: recv.Obj().Name() + "." + name}, true
	}
	return factOp{}, false
}
