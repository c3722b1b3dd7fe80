// Command benchmark is the repository's performance yardstick: seven
// closed-loop workloads through the Portals message path, every delivered
// byte verified, end-to-end metrics with tracing off and per-layer metrics
// from a second, traced run. See README.md and ../BENCHMARK.json.
//
//	go run ./benchmark                  all workloads, 3 interleaved rounds of 6 s, medians
//	go run ./benchmark -trace 1         the per-layer set (1 round)
//	go run ./benchmark -selfcheck       two sets back to back, compared against the bounds
//	go run ./benchmark -compare a b     diff two result sets (refused if their environments differ)
//	go run ./benchmark -workload NAME   one run in this process; last stdout line is the result JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// specPath is where the declared metrics and bounds live, relative to the
// repository root the benchmark is run from.
var specPath = "BENCHMARK.json"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Int64("seed", 1, "seeds target choice, put/get mix, payload patterns and the simnet fault schedule")
	seconds := fs.Float64("seconds", 6, "timed seconds per run")
	trace := fs.Int("trace", 0, "1 = the traced, per-layer run")
	rounds := fs.Int("rounds", 0, "runs per workload, interleaved (default 3, or 1 with -trace 1)")
	selfcheck := fs.Bool("selfcheck", false, "run two sets and fail if their medians differ by more than the bounds")
	compare := fs.Bool("compare", false, "compare two result sets given as arguments")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *rounds <= 0 {
		*rounds = 3
		if *trace == 1 {
			*rounds = 1
		}
	}
	o := orchestrator{seed: *seed, seconds: *seconds, trace: *trace == 1, rounds: *rounds, outDir: *outDir, stdout: stdout, stderr: stderr}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		err = compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case *name != "":
		err = runOne(*name, runConfig{seed: *seed, seconds: *seconds}, *trace == 1, *outDir, stdout)
	case *selfcheck:
		err = o.selfcheck()
	default:
		_, err = o.runSet("set")
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne is the single-run mode the driver and the orchestrator use: it
// prints every metric by name and unit, then the result line.
func runOne(name string, cfg runConfig, trace bool, outDir string, stdout io.Writer) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	pinProcs()
	var res *result
	defs := endToEnd
	if trace {
		res, defs = traced(w, cfg, outDir), perLayer
	} else {
		res = measure(w, cfg)
	}
	res.seal()

	fmt.Fprintf(stdout, "workload %s  trace=%v  seed=%d  seconds=%g\n", w.name, trace, cfg.seed, cfg.seconds)
	fmt.Fprintf(stdout, "fabric   %s\n", res.Fabric)
	fmt.Fprintf(stdout, "env      nproc=%d gomaxprocs=%d %s %s/%s kernel=%s commit=%s\n",
		res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.OS, res.Env.Arch, res.Env.Kernel, res.Env.Commit)
	for _, d := range defs {
		line := fmt.Sprintf("%-32s %14.4f %-6s", d.name, res.Values[d.name], d.unit)
		if s := res.Spread[d.name]; len(s) > 0 {
			lo, hi := minMax(s)
			line += fmt.Sprintf("  min %.4f max %.4f n=%d", lo, hi, len(s))
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "ops_attempted %d  ops_failed %d\n", res.Attempted, res.Failed)
	if res.Error != "" {
		fmt.Fprintf(stdout, "error: %s\n", res.Error)
	}

	suffix := "-e2e.json"
	if trace {
		suffix = "-layers.json"
	}
	if err := writeJSON(filepath.Join(outDir, w.name+suffix), res); err != nil {
		return err
	}
	line, err := json.Marshal(resultLine{
		Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: render(defs, res.Values),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct() {
		return fmt.Errorf("%s: %d of %d operations failed: %s", w.name, res.Failed, res.Attempted, res.Error)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
