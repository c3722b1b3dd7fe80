package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func init() { specPath = filepath.Join("..", "BENCHMARK.json") }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesCode: BENCHMARK.json declares exactly the gated workloads
// and the metric tables of this package, in both directions.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var gated []*workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code gates %d", len(spec.Workloads), len(gated))
	}
	for i, w := range gated {
		got := spec.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	check := func(kind string, declared []specMetric, defs []metricDef) {
		t.Helper()
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the code has %s [%s]", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s has better=%q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
}

// TestWorkloadsSmoke runs every workload briefly: no operation may fail
// and every end-to-end metric must come out positive.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res := measure(w, runConfig{seed: 7, seconds: 0.2})
			if !res.correct() {
				t.Fatalf("%d of %d operations failed: %s", res.Failed, res.Attempted, res.Error)
			}
			for _, d := range endToEnd {
				if v, ok := res.Values[d.name]; !ok || v <= 0 {
					t.Errorf("%s = %v (present %v), want > 0", d.name, v, ok)
				}
			}
		})
	}
}

// TestTracedRun runs the per-layer path once — spans, ladder, transport
// probe, counters — on a workload with a reliability layer under it.
func TestTracedRun(t *testing.T) {
	out := t.TempDir()
	res := traced(findWorkload("pp64_simnet"), runConfig{seed: 7, seconds: 0.4}, out)
	if !res.correct() {
		t.Fatalf("%d of %d operations failed: %s", res.Failed, res.Attempted, res.Error)
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for name := range res.Values {
		if !declared[name] {
			t.Errorf("traced run produced undeclared metric %q", name)
		}
	}
	for _, name := range []string{
		"portals.put_call_ns", "portals.eq_wait_ns", "core.start_put_ns", "core.handle_put_ns", "core.handle_ack_ns",
		"core.handle_get_ns", "core.handle_reply_ns", "wire.encode_ns", "wire.decode_ns", "eventq.post_ns",
		"eventq.get_ns", "eventq.poll_wake_ns", "transport.oneway_ns", "transport.send_call_ns",
		"rtscts.pkts_per_msg", "simnet.delivered_ratio", "bufpool.gets_per_op", "host.calib_ns",
	} {
		if res.Values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Values[name])
		}
	}
	if _, err := os.Stat(filepath.Join(out, "pp64_simnet-spans.csv")); err != nil {
		t.Errorf("span dump: %v", err)
	}
}

// TestResultLine drives the single-run CLI the way the driver does and
// checks the shape of the last output line.
func TestResultLine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // run pins it
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "pp0_loopback", "--seed", "3", "--seconds", "0.2", "--trace", "0", "-out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want 4", len(line))
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("result line carries %d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := metrics[d.name]; m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("%s = %+v", d.name, m)
		}
	}
}

// TestCompareRefusesDifferentEnv: results measured under different
// conditions are not diffed.
func TestCompareRefusesDifferentEnv(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int) string {
		env := captureEnv()
		env.GOMAXPROCS = procs
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &resultSet{Env: env, Rounds: 1, Seconds: 1, Workloads: map[string]*setEntry{}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 2), write("b.json", 2), write("c.json", 1)
	var out bytes.Buffer
	if err := compareFiles(a, b, &out); err != nil {
		t.Errorf("same environment: %v", err)
	}
	if err := compareFiles(a, c, &out); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("different GOMAXPROCS: got %v, want a refusal", err)
	}
}
