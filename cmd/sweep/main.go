// Command sweep regenerates the paper's evaluation. It is the one
// experiment driver: a table of experiments (rows.go), each a subcommand
// that prints its paper-style table through the internal/experiments
// driver behind it.
//
// Usage:
//
//	sweep [-quick] [-trace F] [-metrics F]           every experiment, one after another
//	sweep [-quick] <experiment> [flags]              one experiment, its parameters exposed
//	sweep -h | sweep <experiment> -h                 the table | one experiment's flags
//
// Run without an experiment it is the one-shot regeneration entry point
// EXPERIMENTS.md refers to: every row with its defaults, under the banners
// the row declares (E2 is the bypass row with three test calls, E8 the
// pingpong row with -bw). -quick shrinks the default iteration counts and
// grids: that run takes a couple of seconds, the full one about ten.
//
// Every experiment takes -trace and -metrics. -trace captures the
// per-message flight recorder (internal/obs/trace) across the run and
// writes a Chrome Trace Event file; open it in Perfetto (ui.perfetto.dev).
// In a bypass capture receive-side match/deliver/event-post instants land
// inside the application's compute-burn spans — the §5.1 claim, directly
// observable — and in a collbench capture trig-fire instants do;
// cmd/tracecheck -require-bypass / -require-offload assert exactly that.
// -metrics writes the final Prometheus text exposition of every layer's
// counters, for the machines the experiment's driver registers (bypass,
// pingpong latency, collbench, mpibench).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// experiment is one row of the table: a subcommand.
type experiment struct {
	name  string
	paper string // E-number and paper section
	about string
	// flags declares the experiment's own flags on fs, under the names and
	// defaults its stand-alone command had, and returns the function that
	// prints its table. Nothing else prints it: running everything calls
	// the same function.
	flags func(fs *flag.FlagSet, c *common) func(w io.Writer) error
	// sections is what running everything regenerates from this row: under
	// each banner, the row with these arguments on top of its defaults.
	sections []section
}

type section struct {
	banner string
	args   []string
}

// prepare parses args into the experiment's flags and returns its run.
func (e experiment) prepare(c *common, args []string) func(io.Writer) error {
	fs := c.flagSet("sweep " + e.name)
	run := e.flags(fs, c)
	parse(fs, args)
	if fs.NArg() > 0 {
		usageError(fs, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	return run
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: sweep [-quick] [-trace F] [-metrics F] [<experiment> [flags]]")
	fmt.Fprintln(w, "\nWithout an experiment, runs every one with its defaults. Experiments:")
	for _, e := range table {
		fmt.Fprintf(w, "  %-12s %-25s %s\n", e.name, e.paper, e.about)
	}
	fmt.Fprintln(w, "\n`sweep <experiment> -h` lists an experiment's flags.")
}

func main() {
	c := &common{}
	top := c.flagSet("sweep")
	top.BoolVar(&c.quick, "quick", false, "smaller default iteration counts")
	top.Usage = func() { usage(top.Output()) }
	parse(top, os.Args[1:])

	// Every argument list is parsed before anything runs.
	var runs []func(io.Writer) error
	everything := top.NArg() == 0
	for _, e := range table {
		switch {
		case everything:
			for _, s := range e.sections {
				run := e.prepare(c, s.args)
				runs = append(runs, func(w io.Writer) error {
					fmt.Fprintf(w, "\n===== %s =====\n", s.banner)
					return run(w)
				})
			}
		case e.name == top.Arg(0):
			runs = append(runs, e.prepare(c, top.Args()[1:]))
		}
	}
	if len(runs) == 0 {
		fmt.Fprintf(os.Stderr, "sweep: unknown experiment %q\n", top.Arg(0))
		usage(os.Stderr)
		os.Exit(2)
	}

	finish := c.capture()
	for _, run := range runs {
		if err := run(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if everything {
		fmt.Println("\ndone.")
	}
	if err := finish(os.Stdout); err != nil {
		fatal(err)
	}
}

// fatal ends a run that failed. No artifact is written on this path, which
// is the right failure mode: a partial capture would look like a complete
// one.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
