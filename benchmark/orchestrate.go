package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// orchestrator runs whole sets: every workload, several rounds, each run
// a fresh process of this same binary, rounds interleaved (A B C … A B C
// …) so that a noisy stretch of the machine lands on one round of every
// workload instead of on every round of one.
type orchestrator struct {
	seed    int64
	seconds float64
	trace   bool
	rounds  int
	outDir  string
	stdout  io.Writer
	stderr  io.Writer
}

// summary is one metric of one workload over the rounds of a set.
type summary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

type setEntry struct {
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	Metrics   map[string]summary `json:"metrics"`
}

// resultSet is the file a set writes and -compare reads.
type resultSet struct {
	Env       environment          `json:"env"`
	Seed      int64                `json:"seed"`
	Rounds    int                  `json:"rounds"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Workloads map[string]*setEntry `json:"workloads"`
}

// child runs one workload once in a fresh process and parses its result
// line.
func (o *orchestrator) child(name string, seed int64) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, o.stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %w", name, runErr, err)
	}
	if runErr != nil || !line.Correct {
		return &line, fmt.Errorf("%s: %d of %d operations failed (%v)", name, line.Failed, line.Attempted, runErr)
	}
	return &line, nil
}

// runSet runs rounds × workloads, prints the medians, and writes the set
// to <out>/<label>-e2e.json or <label>-layers.json.
func (o *orchestrator) runSet(label string) (*resultSet, error) {
	pinProcs()
	set := &resultSet{Env: captureEnv(), Seed: o.seed, Rounds: o.rounds, Seconds: o.seconds, Trace: o.trace,
		Workloads: map[string]*setEntry{}}
	var firstErr error
	for r := 0; r < o.rounds; r++ {
		for _, w := range workloads {
			fmt.Fprintf(o.stderr, "round %d/%d  %s\n", r+1, o.rounds, w.name)
			line, err := o.child(w.name, o.seed)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if line == nil {
				continue
			}
			e := set.Workloads[w.name]
			if e == nil {
				e = &setEntry{Metrics: map[string]summary{}}
				set.Workloads[w.name] = e
			}
			e.Attempted += line.Attempted
			e.Failed += line.Failed
			for name, m := range line.Metrics {
				s := e.Metrics[name]
				s.Unit = m.Unit
				s.Values = append(s.Values, m.Value)
				e.Metrics[name] = s
			}
		}
	}
	defs := endToEnd
	suffix := "-e2e.json"
	if o.trace {
		defs, suffix = perLayer, "-layers.json"
	}
	for _, w := range workloads {
		e := set.Workloads[w.name]
		if e == nil {
			continue
		}
		fmt.Fprintf(o.stdout, "\n%s — %s\n  %s\n", w.name, w.fabric.label(), w.why)
		for _, d := range defs {
			s := e.Metrics[d.name]
			s.Median = median(s.Values)
			s.Min, s.Max = minMax(s.Values)
			e.Metrics[d.name] = s
			fmt.Fprintf(o.stdout, "  %-32s %14.4f %-6s  min %.4f max %.4f n=%d\n", d.name, s.Median, s.Unit, s.Min, s.Max, len(s.Values))
		}
		fmt.Fprintf(o.stdout, "  ops_attempted %d  ops_failed %d  failed_frac %g\n", e.Attempted, e.Failed, ratio(float64(e.Failed), float64(e.Attempted)))
	}
	path := filepath.Join(o.outDir, label+suffix)
	if err := writeJSON(path, set); err != nil {
		return set, err
	}
	fmt.Fprintf(o.stdout, "\nresult set written to %s\n", path)
	return set, firstErr
}

// bounds reads the end-to-end regression bounds from BENCHMARK.json.
func bounds() (map[string]specMetric, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	m := map[string]specMetric{}
	for _, s := range spec.EndToEnd {
		m[s.Name] = s
	}
	return m, nil
}

// worse is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worse(m specMetric, a, b float64) float64 {
	d := ratio(b-a, a)
	if m.Better == "higher" {
		return -d
	}
	return d
}

// diffSets prints both medians and their relative difference per
// (workload, metric) and returns how many differences exceed a bound.
// Symmetric is for two runs of the same code, where either direction
// beyond the bound means the metric does not repeat.
func diffSets(a, b *resultSet, symmetric bool, stdout io.Writer) (int, error) {
	bound, err := bounds()
	if err != nil {
		return 0, err
	}
	over := 0
	fmt.Fprintf(stdout, "%-20s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		ea, eb := a.Workloads[w.name], b.Workloads[w.name]
		if ea == nil || eb == nil {
			continue
		}
		for _, d := range endToEnd {
			m := bound[d.name]
			by := worse(m, ea.Metrics[d.name].Median, eb.Metrics[d.name].Median)
			mark := ""
			if by > m.Bound || (symmetric && -by > m.Bound) {
				mark = "  EXCEEDS"
				over++
			}
			fmt.Fprintf(stdout, "%-20s %-22s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n",
				w.name, d.name, ea.Metrics[d.name].Median, eb.Metrics[d.name].Median, by*100, m.Bound*100, mark)
		}
	}
	return over, nil
}

// selfcheck is the repeatability evidence: two complete sets of the same
// code must agree within the benchmark's own bounds.
func (o *orchestrator) selfcheck() error {
	if o.trace {
		return fmt.Errorf("-selfcheck compares end-to-end metrics; run it without -trace 1")
	}
	a, err := o.runSet("selfcheck-a")
	if err != nil {
		return err
	}
	b, err := o.runSet("selfcheck-b")
	if err != nil {
		return err
	}
	fmt.Fprintln(o.stdout)
	over, err := diffSets(a, b, true, o.stdout)
	if err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two sets of the same code by more than their bound", over)
	}
	fmt.Fprintln(o.stdout, "selfcheck: every metric repeats within its bound")
	return nil
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles diffs two end-to-end result sets, refusing when they were
// not measured under the same conditions.
func compareFiles(pathA, pathB string, stdout io.Writer) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	if a.Trace || b.Trace {
		return fmt.Errorf("-compare takes end-to-end sets, not traced ones")
	}
	if !a.Env.comparable(b.Env) || a.Seconds != b.Seconds || a.Rounds != b.Rounds {
		return fmt.Errorf("refusing to compare: environments differ\n  %s: %+v rounds=%d seconds=%g\n  %s: %+v rounds=%d seconds=%g",
			pathA, a.Env, a.Rounds, a.Seconds, pathB, b.Env, b.Rounds, b.Seconds)
	}
	over, err := diffSets(a, b, false, stdout)
	if err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("%d metrics are worse in %s by more than their bound", over, pathB)
	}
	return nil
}
