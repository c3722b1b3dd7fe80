package pooltest

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// parkedAtExit stands for a loop its owner forgot to stop.
func parkedAtExit(stop <-chan struct{}) { <-stop }

// A goroutine still parked when the grace runs out fails the binary, and
// the report carries its stack; one that ends inside the grace does not.
func TestSettleReportsGoroutinesLeftRunning(t *testing.T) {
	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	go parkedAtExit(stop)
	var out bytes.Buffer
	if code := settle(base, 20*time.Millisecond, &out); code != 1 {
		t.Errorf("settle with a goroutine parked = %d, want 1", code)
	}
	if report := out.String(); !strings.Contains(report, "goroutines running at exit") ||
		!strings.Contains(report, "pooltest.parkedAtExit") {
		t.Errorf("the report does not name the parked goroutine:\n%s", report)
	}

	close(stop)
	go time.Sleep(50 * time.Millisecond)
	out.Reset()
	if code := settle(base, grace, &out); code != 0 {
		t.Errorf("settle with goroutines that end inside the grace = %d, want 0:\n%s", code, out.String())
	}
}

// A loan still out is held: Usage no longer counts it, the ledger does.
func TestHeldCountsLoans(t *testing.T) {
	h0 := held()
	var loan bufpool.Buf
	b := loan.Lend([]byte("body"), nil, func() {})
	if n := held() - h0; n != 1 {
		t.Errorf("with a loan out, held moved by %d, want 1", n)
	}
	var out bytes.Buffer
	if code := settle(runtime.NumGoroutine(), 20*time.Millisecond, &out); code != 1 ||
		!strings.Contains(out.String(), "outstanding at exit") {
		t.Errorf("settle with a loan out = %d, %q; want 1 and the buffers named", code, out.String())
	}
	b.Release()
	if n := held() - h0; n != 0 {
		t.Errorf("after the loan's return, held moved by %d, want 0", n)
	}
}
