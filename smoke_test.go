package repro

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Smoke tests: every example and command-line tool builds, runs on small
// inputs, and prints what its documentation promises. These are the
// "does the shipped repo actually work" checks a release pipeline runs.

func runCmd(t *testing.T, timeout time.Duration, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(name, args...)
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		cmd.Process.Kill()
		<-done
		t.Fatalf("%s %v timed out after %v\noutput: %s", name, args, timeout, out)
	}
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

// freeTCPAddrs asks the kernel for n loopback ports nobody holds right now.
func freeTCPAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close() // held until all n are chosen, so they differ
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func goRun(t *testing.T, timeout time.Duration, pkg string, args ...string) string {
	t.Helper()
	return runCmd(t, timeout, "go", append([]string{"run", pkg}, args...)...)
}

func TestExampleQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short")
	}
	out := goRun(t, 60*time.Second, "./examples/quickstart")
	if !strings.Contains(out, `"hello, Portals 3.0"`) {
		t.Errorf("quickstart output:\n%s", out)
	}
}

func TestExampleHalo(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short")
	}
	out := goRun(t, 120*time.Second, "./examples/halo", "-n", "3", "-rows", "48", "-cols", "48", "-iters", "10")
	if !strings.Contains(out, "done: 3 ranks") || !strings.Contains(out, "heat checksum") {
		t.Errorf("halo output:\n%s", out)
	}
}

func TestExampleOnesided(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short")
	}
	out := goRun(t, 120*time.Second, "./examples/onesided", "-n", "2", "-bins", "8", "-samples", "500")
	if !strings.Contains(out, "total samples accounted: 1000 (expected 1000)") {
		t.Errorf("onesided output:\n%s", out)
	}
}

func TestExampleFileio(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short")
	}
	out := goRun(t, 60*time.Second, "./examples/fileio")
	if !strings.Contains(out, "data path fully bypassed") {
		t.Errorf("fileio output:\n%s", out)
	}
}

func TestExampleOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short")
	}
	out := goRun(t, 120*time.Second, "./examples/overlap", "-batch", "4", "-work", "6ms")
	if !strings.Contains(out, "communication hidden behind compute") {
		t.Errorf("overlap output:\n%s", out)
	}
}

func TestCmdPtlnodePair(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short")
	}
	bin := t.TempDir() + "/ptlnode"
	runCmd(t, 120*time.Second, "go", "build", "-o", bin, "./cmd/ptlnode")

	pong := exec.Command(bin, "-nid", "1", "-listen", "127.0.0.1:9901",
		"-peer", "2=127.0.0.1:9902", "-mode", "pong")
	if err := pong.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		pong.Process.Kill()
		pong.Wait()
	}()
	out := runCmd(t, 60*time.Second, bin, "-nid", "2", "-listen", "127.0.0.1:9902",
		"-peer", "1=127.0.0.1:9901", "-mode", "ping", "-target", "1", "-count", "50", "-size", "256")
	if !strings.Contains(out, "round trips") || !strings.Contains(out, "avg RTT") {
		t.Errorf("ptlnode output:\n%s", out)
	}
}

func TestCmdPtlnodePairUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short")
	}
	bin := t.TempDir() + "/ptlnode"
	runCmd(t, 120*time.Second, "go", "build", "-o", bin, "./cmd/ptlnode")

	pong := exec.Command(bin, "-transport", "udp", "-nid", "1", "-listen", "127.0.0.1:9921",
		"-peer", "2=127.0.0.1:9922", "-mode", "pong")
	if err := pong.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		pong.Process.Kill()
		pong.Wait()
	}()
	out := runCmd(t, 60*time.Second, bin, "-transport", "udp", "-nid", "2", "-listen", "127.0.0.1:9922",
		"-peer", "1=127.0.0.1:9921", "-mode", "ping", "-target", "1", "-count", "50", "-size", "256")
	if !strings.Contains(out, "round trips") || !strings.Contains(out, "avg RTT") {
		t.Errorf("ptlnode -transport udp output:\n%s", out)
	}
}

func TestCmdMpinodeJob(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short")
	}
	bin := t.TempDir() + "/mpinode"
	runCmd(t, 120*time.Second, "go", "build", "-o", bin, "./cmd/mpinode")

	addrs := strings.Join(freeTCPAddrs(t, 2), ",")
	r1 := exec.Command(bin, "-rank", "1", "-n", "2", "-addrs", addrs, "-size", "4096", "-rounds", "2")
	if err := r1.Start(); err != nil {
		t.Fatal(err)
	}
	var r1err error
	r1done := make(chan struct{})
	go func() {
		r1err = r1.Wait()
		close(r1done)
	}()
	// However the test ends, rank 1 ends with it: a rank 0 that failed or
	// timed out must not leave its peer running and holding a port.
	t.Cleanup(func() {
		r1.Process.Kill()
		<-r1done
	})
	out := runCmd(t, 60*time.Second, bin, "-rank", "0", "-n", "2", "-addrs", addrs, "-size", "4096", "-rounds", "2")
	select {
	case <-r1done:
		if r1err != nil {
			t.Fatalf("rank 1: %v", r1err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rank 1 still running 30s after rank 0 finished")
	}
	if !strings.Contains(out, "rank 0/2") || !strings.Contains(out, "OK") {
		t.Errorf("mpinode output:\n%s", out)
	}
}

func TestCmdPortalsvet(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short")
	}
	out := goRun(t, 300*time.Second, "./cmd/portalsvet", "-list")
	for _, check := range []string{"bypassviolation", "lockdiscipline", "lockorder", "guardedby", "checkederr"} {
		if !strings.Contains(out, check) {
			t.Errorf("portalsvet -list missing %q:\n%s", check, out)
		}
	}
	// The tree must be clean under its own lint (nonzero exit fails here).
	goRun(t, 300*time.Second, "./cmd/portalsvet", "./...")
}

// TestCmdSweep drives the one experiment driver: cmd/sweep built once, then
// every row of its table as a subcommand on small inputs, the run of
// everything, and what the shared flag front end refuses. Each row must print
// the header and columns its documentation (and EXPERIMENTS.md) shows.
func TestCmdSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "sweep")
	runCmd(t, 120*time.Second, "go", "build", "-o", bin, "./cmd/sweep")
	experiments := []string{"bypass", "pingpong", "memscale", "collectives", "overhead", "scaling", "collbench", "mpibench", "swarm"}
	for _, c := range []struct {
		name string
		args []string
		exit int
		want []string
		rows int // lines of output that are neither blank nor a # comment, when not 0
	}{
		{name: "bypass", args: []string{"bypass", "-points", "2", "-iters", "1", "-max", "6ms"},
			want: []string{"wait(MPI/GM)", "wait(MPI/Portals)", "ms"}, rows: 3},
		// A one-point sweep is the single point -max (it divided by points-1).
		{name: "bypass-one-point", args: []string{"bypass", "-points", "1", "-iters", "1", "-max", "2ms"},
			want: []string{"wait(MPI/GM)", "\n2ms "}, rows: 2},
		{name: "collbench", args: []string{"collbench", "-procs", "2,4", "-burns", "0,1ms", "-iters", "2"},
			want: []string{"offloaded/op", "allreduce"}},
		// The triggered chains through the real-socket datagram transport:
		// the counting events and armed operations must behave identically
		// when delivery rides kernel UDP + rtscts reliability.
		{name: "collbench-udp", args: []string{"collbench", "-fabric", "udp", "-procs", "2,4", "-burns", "1ms", "-iters", "2"},
			want: []string{"fabric=udp", "allreduce"}},
		{name: "pingpong", args: []string{"pingpong", "-fabric", "loopback", "-iters", "20"},
			want: []string{"half-RTT"}},
		{name: "pingpong-bw", args: []string{"pingpong", "-fabric", "loopback", "-bw", "-count", "8"},
			want: []string{"MB/s", "elapsed"}},
		// Beside the Portals and VIA columns, the fabric's idle stream:
		// simnet keeps one link goroutine per stream, udp none, and rows
		// past streamNodes (32 nodes) read "-".
		{name: "memscale", args: []string{"memscale", "-maxpeers", "63"},
			want: []string{"portals(bytes)", "simnet(B/stream)", "udp(goroutines)", "\n31 ", " 1.00 ", " 0.00\n", "\n63 ", "-\n"}, rows: 7},
		{name: "memscale-gc", args: []string{"memscale", "-gc", "-entries", "100000"},
			want: []string{"heap-objects", "arena"}},
		// Every put of the sweep acked, counted off the driver's event queue:
		// a lost ack fails the row instead of shortening the count.
		{name: "swarm", args: []string{"swarm", "-endpoints", "200,400", "-hot", "16", "-msgs", "5000", "-trials", "1"},
			want: []string{"hot-16(ns/msg)", "\n200 ", "\n400 ", " 11000/11000\n"}, rows: 3},
		// The same over real kernel datagram sockets under rtscts.
		{name: "swarm-udp", args: []string{"swarm", "-fabric", "udp", "-endpoints", "100", "-msgs", "2000", "-trials", "1"},
			want: []string{"over udp", " 4400/4400\n"}, rows: 2},
		{name: "mpibench", args: []string{"mpibench", "-fabric", "loopback", "-bench", "latency", "-iters", "20"},
			want: []string{"ping-pong latency"}},
		{name: "everything", args: []string{"-quick"},
			want: []string{"E1 (Figure 6)", "E2", "E3", "E5", "E7", "E8", "E12", "E14", "E15", "§7", "done."}},
		{name: "unknown-experiment", args: []string{"nosuch"}, exit: 2, want: experiments},
		// Counts the tables divide by are refused by the front end, in one
		// line, not by a panic.
		{name: "bypass-no-points", args: []string{"bypass", "-points", "0"}, exit: 2, want: []string{"-points"}, rows: 1},
		{name: "mpibench-no-iters", args: []string{"mpibench", "-iters", "0"}, exit: 2, want: []string{"-iters"}, rows: 1},
		{name: "swarm-tcp", args: []string{"swarm", "-fabric", "tcp"}, exit: 2, want: []string{"-fabric"}, rows: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
			defer cancel()
			raw, err := exec.CommandContext(ctx, bin, c.args...).CombinedOutput()
			out := string(raw)
			status := 0
			if exit := (*exec.ExitError)(nil); errors.As(err, &exit) {
				status = exit.ExitCode()
			} else if err != nil {
				t.Fatalf("sweep %v: %v\n%s", c.args, err, out)
			}
			if status != c.exit {
				t.Fatalf("sweep %v: exit status %d, want %d\n%s", c.args, status, c.exit, out)
			}
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Errorf("sweep %v: output lacks %q:\n%s", c.args, want, out)
				}
			}
			rows := 0
			for _, l := range strings.Split(out, "\n") {
				if l != "" && !strings.HasPrefix(l, "#") {
					rows++
				}
			}
			if c.rows != 0 && rows != c.rows {
				t.Errorf("sweep %v: %d rows of output, want %d:\n%s", c.args, rows, c.rows, out)
			}
		})
	}
}

// TestBenchABVerdicts holds the one comparison rule of the repository
// (scripts/bench-ab-report.awk, behind `make bench-ab`) to its wording: canned
// base and change samples, one row per verdict.
func TestBenchABVerdicts(t *testing.T) {
	if _, err := exec.LookPath("awk"); err != nil {
		t.Skip("no awk on this host")
	}
	// check runs the reporter over the two sample texts and asserts, per
	// row name, exactly one line of output, containing each wanted piece.
	check := func(t *testing.T, base, change, awkVar string, want map[string][]string) {
		t.Helper()
		dir := t.TempDir()
		for name, text := range map[string]string{"base": base, "change": change} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		out := runCmd(t, 30*time.Second, "awk", "-v", awkVar, "-f", "scripts/bench-ab-report.awk",
			filepath.Join(dir, "base"), filepath.Join(dir, "change"))
		for row, pieces := range want {
			var lines []string
			for _, l := range strings.Split(out, "\n") {
				if strings.HasPrefix(l, row+" ") || strings.HasPrefix(l, row+":") {
					lines = append(lines, l)
				}
			}
			if len(lines) != 1 {
				t.Fatalf("%d lines for %q, want 1:\n%s", len(lines), row, out)
			}
			for _, piece := range pieces {
				if !strings.Contains(lines[0], piece) {
					t.Errorf("row %q lacks %q: %s", row, piece, lines[0])
				}
			}
		}
		if strings.Contains(out, "goos") || strings.Contains(out, "B/op") {
			t.Errorf("go's headers or -benchmem columns leaked into the table:\n%s", out)
		}
	}
	// samples renders values as one metric's lines, ramp n values from first.
	samples := func(name string, values ...float64) string {
		var b strings.Builder
		for _, v := range values {
			fmt.Fprintf(&b, "%s %g\n", name, v)
		}
		return b.String()
	}
	ramp := func(n int, first, step float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = first + float64(i)*step
		}
		return v
	}

	t.Run("metrics", func(t *testing.T) {
		narrow := ramp(10, 100, 1) // median 104.5, IQR 4.5
		var base, change, metrics strings.Builder
		want := map[string][]string{
			"base":   {"10000 operations attempted, 0 failed"},
			"change": {"10000 operations attempted, 2 failed"},
		}
		for _, c := range []struct {
			name, better, bound string
			base, change        []float64
			want                []string
		}{
			{"same", "lower", "0.25", narrow, ramp(10, 101, 1),
				[]string{"104.5 [102.2, 106.8]", "105.5 [103.2, 107.8]", "0/10", "+1.0%", "not moved (within the base spread)"}},
			// 100..280: median 190, IQR 90, 47 % of it.
			{"wide", "lower", "0.25", ramp(10, 100, 20), ramp(10, 110, 20),
				[]string{"unresolved (base spread 47% is wider than the 25% bound)"}},
			{"better", "lower", "0.25", narrow, ramp(10, 80, 1),
				[]string{"10/10", "-19.1%", "BETTER (beyond base IQR, won >= 9/10)"}},
			{"rate", "higher", "0.25", narrow, ramp(10, 120, 1),
				[]string{"10/10", "+19.1%", "BETTER (beyond base IQR, won >= 9/10)"}},
			// The median drops by 20, but only the first six pairs are won.
			{"sixoften", "lower", "0.25", narrow, append(ramp(6, 80, 1), ramp(4, 120, 1)...),
				[]string{"6/10", "better in the median, but won too few pairs"}},
			{"worse", "lower", "0.25", narrow, ramp(10, 110, 1),
				[]string{"0/10", "+9.6%", "worse (beyond base IQR, inside the 25% bound)"}},
			{"farworse", "lower", "0.25", narrow, ramp(10, 200, 1),
				[]string{"WORSE (beyond base IQR and the 25% bound)"}},
			{"few", "lower", "0.25", ramp(3, 1, 1), ramp(3, 1, 1),
				[]string{"0/3", "too few pairs for a spread"}},
			// The rows of a traced run (TRACE=1): per-layer metrics have a
			// direction and no bound, so they read moved or not moved against
			// the base's spread, whatever the size of the move, the width of
			// that spread or the pairs won.
			{"layer.gets_per_op", "lower", "", narrow, ramp(10, 5, 0),
				[]string{"5 [5, 5]", "10/10", "-95.2%", "moved, better (beyond base IQR)"}},
			{"layer.useful_ratio", "higher", "", narrow, append(ramp(6, 80, 1), ramp(4, 120, 1)...),
				[]string{"4/10", "moved, worse (beyond base IQR)"}},
			{"layer.cpu_us_per_op", "lower", "", ramp(10, 100, 20), ramp(10, 110, 20),
				[]string{"not moved (within the base spread)"}},
			{"layer.drops", "lower", "", ramp(10, 0, 0), ramp(10, 0, 0),
				[]string{"0/10", "n/a", "not moved (within the base spread)"}},
		} {
			fmt.Fprintf(&metrics, "%s %s %s\n", c.name, c.better, c.bound)
			base.WriteString(samples(c.name, c.base...))
			change.WriteString(samples(c.name, c.change...))
			want[c.name] = c.want
		}
		base.WriteString(samples("ops_attempted", ramp(10, 1000, 0)...) + samples("ops_failed", ramp(10, 0, 0)...))
		change.WriteString(samples("ops_attempted", ramp(10, 1000, 0)...) + samples("ops_failed", append(ramp(9, 0, 0), 2)...))
		check(t, base.String(), change.String(), "metrics="+strings.TrimSpace(metrics.String()), want)
	})

	// The other input: `go test -bench` output as it comes, four runs a side.
	t.Run("gobench", func(t *testing.T) {
		run := func(exact, ct float64, extra string) string {
			return fmt.Sprintf(`goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkTranslateExact/entries=16-4         	12000000	        %.2f ns/op	       0 B/op	       0 allocs/op
BenchmarkCTIncrement-4                       	100000000	        %.2f ns/op
BenchmarkEagerThreshold/eager-4              	     100	  11000000 ns/op	 530.12 MB/s	       512.3 MB/s
%sPASS
ok  	repro	5.123s
`, exact, ct, extra)
		}
		var base, change strings.Builder
		for i := 0; i < 4; i++ {
			base.WriteString(run(95+float64(i), 10.5, "BenchmarkGone-4  	 1000	 5.00 ns/op\n"))
			change.WriteString(run(95+float64(i), 21, ""))
		}
		check(t, base.String(), change.String(), "nsbound=0.25", map[string][]string{
			"TranslateExact/entries=16-4": {"96.5 [95.75, 97.25]", "0/4", "+0.0%", "not moved"},
			"CTIncrement-4":               {"10.5 [10.5, 10.5]", "21 [21, 21]", "0/4", "+100.0%", "WORSE (beyond base IQR and the 25% bound)"},
			"EagerThreshold/eager-4":      {"1.1e+07 [1.1e+07, 1.1e+07]", "not moved"},
			"Gone-4":                      {"not compared: 4 base and 0 change samples"},
			"base":                        {"448004400 operations attempted, 0 failed"},
			"change":                      {"448000400 operations attempted, 0 failed"},
		})
	})
}
