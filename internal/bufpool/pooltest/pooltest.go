// Package pooltest is the tests' buffer ledger: it holds a test binary of
// any package that pools to bufpool's contract, one last Release per Get.
// Only tests import it, the way net/http/httptest is imported.
package pooltest

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// leaking is set once a wait timed out: the binary fails, and no test waits.
var leaking atomic.Bool

func held() int64 { gets, _, puts := bufpool.Usage(); return gets - puts }

// await polls until no pooled buffer is out (a fabric's link or a lane may
// hand one back after Close) or 10 s pass, and returns the last reading.
func await() int64 {
	n, deadline := held(), time.Now().Add(10*time.Second)
	for ; n != 0 && !leaking.Load() && time.Now().Before(deadline); n = held() {
		time.Sleep(time.Millisecond)
	}
	leaking.Store(n != 0)
	return n
}

// Main runs the tests, then fails the binary unless every pooled buffer
// taken has come back: func TestMain(m *testing.M) { pooltest.Main(m) }.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 && await() != 0 {
		fmt.Fprintf(os.Stderr, "pooltest: %d pooled buffers outstanding at exit\n", held())
		code = 1
	}
	os.Exit(code)
}

// Baseline waits for the buffers of earlier tests to come back, then
// returns the number held beyond what is still out, read at each call.
func Baseline(t testing.TB) (since func() int64) {
	t.Helper()
	start := await()
	return func() int64 { return held() - start }
}
