// Package pooltest is the tests' ledger: it holds a test binary of any
// package that pools to bufpool's contract, one last Release per Get or
// Lend, and to the rule that every goroutine its tests start has ended by
// the time they have. Only tests import it, the way net/http/httptest is
// imported.
package pooltest

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// grace is how long the binary waits, after its tests, for links, lanes and
// loops to hand back their buffers and end.
const grace = 10 * time.Second

// leaking is set once a wait timed out: the binary fails, and no test waits.
var leaking atomic.Bool

func held() int64 {
	gets, _, puts := bufpool.Usage()
	lent, returned := bufpool.Loans()
	return gets - puts + lent - returned
}

// await polls until no buffer is out (a fabric's link or a lane may hand
// one back after Close) or the grace passes, and returns the last reading.
func await() int64 {
	n, deadline := held(), time.Now().Add(grace)
	for ; n != 0 && !leaking.Load() && time.Now().Before(deadline); n = held() {
		time.Sleep(time.Millisecond)
	}
	leaking.Store(n != 0)
	return n
}

// Main runs the tests, then fails the binary unless every pooled buffer
// taken has come back and no goroutine is left beyond those running before
// the tests: func TestMain(m *testing.M) { pooltest.Main(m) }.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		code = settle(base, grace, os.Stderr)
	}
	os.Exit(code)
}

// settle waits up to wait for the buffers still out to come back and the
// goroutines beyond base to end, then writes what is left to w, with every
// goroutine's stack if a goroutine is, and returns the exit status: 1 if
// anything is left.
func settle(base int, wait time.Duration, w io.Writer) int {
	deadline := time.Now().Add(wait)
	for (held() != 0 && !leaking.Load() || runtime.NumGoroutine() > base) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	code := 0
	if n := held(); n != 0 {
		fmt.Fprintf(w, "pooltest: %d pooled buffers outstanding at exit\n", n)
		code = 1
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(w, "pooltest: %d goroutines running at exit, %d before the tests\n%s\n", n, base, buf)
		code = 1
	}
	return code
}

// Baseline waits for the buffers of earlier tests to come back, then
// returns the number held beyond what is still out, read at each call.
func Baseline(t testing.TB) (since func() int64) {
	t.Helper()
	start := await()
	return func() int64 { return held() - start }
}
