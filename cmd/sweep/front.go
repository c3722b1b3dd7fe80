package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
	"repro/internal/rtscts"
	"repro/internal/transport/simnet"
	"repro/portals"
)

// The flag front end every row of the table stands behind: the capture
// flags, the fabric switch and the validation of counts, written once.

// common is what the front end hands every experiment.
type common struct {
	quick      bool
	traceOut   string
	metricsOut string
	// reg is the registry -metrics asked for, nil otherwise; a row passes it
	// to the drivers that register their machines.
	reg *metrics.Registry
}

// quickOr picks a default: full, or small under -quick.
func quickOr[T any](c *common, full, small T) T {
	if c.quick {
		return small
	}
	return full
}

// flagSet starts a flag set with the capture flags on it. They are declared
// on the top-level set and again on each experiment's, over the same
// variables, so they may stand before or after the experiment's name.
func (c *common) flagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // parse reports; the package would add the whole usage to every error
	fs.StringVar(&c.traceOut, "trace", c.traceOut, "write a Chrome Trace Event (Perfetto) capture to this file")
	fs.StringVar(&c.metricsOut, "metrics", c.metricsOut, "write the final Prometheus text exposition to this file")
	return fs
}

// parse parses args or ends the process: usage and status 0 for -h, one
// line and status 2 for anything the flags refuse.
func parse(fs *flag.FlagSet, args []string) {
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		fs.SetOutput(os.Stdout)
		fs.Usage()
		os.Exit(0)
	case err != nil:
		usageError(fs, err)
	}
}

func usageError(fs *flag.FlagSet, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
	os.Exit(2)
}

// checked declares a flag whose values parse must accept; def is the
// default as one would type it. It is where a count of zero is refused —
// some table divides by every one of them (points-1, 2*iters, a window
// that never advances) — instead of each driver guarding its own.
func checked[T any](fs *flag.FlagSet, name, def, usage string, parse func(string) (T, error)) *T {
	v, err := parse(def)
	if err != nil {
		panic(fmt.Sprintf("%s: default of -%s: %v", fs.Name(), name, err))
	}
	fs.Func(name, fmt.Sprintf("%s (default %s)", usage, def), func(s string) (err error) {
		v, err = parse(s)
		return err
	})
	return &v
}

// atLeast parses an integer no smaller than min: 1 for a count, 0 for a
// number of extra calls.
func atLeast(min int) func(string) (int, error) {
	return func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil || n < min {
			return 0, fmt.Errorf("want an integer of at least %d", min)
		}
		return n, nil
	}
}

// count declares a flag that must be a positive integer.
func count(fs *flag.FlagSet, name string, def int, usage string) *int {
	return checked(fs, name, strconv.Itoa(def), usage, atLeast(1))
}

// listOf parses a comma-separated list of what elem parses.
func listOf[T any](elem func(string) (T, error)) func(string) ([]T, error) {
	return func(s string) ([]T, error) {
		var out []T
		for _, f := range strings.Split(s, ",") {
			v, err := elem(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("%q: %w", f, err)
			}
			out = append(out, v)
		}
		return out, nil
	}
}

// burn parses a compute-burn duration; a bare 0 needs no unit.
func burn(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, errors.New("want a non-negative duration")
	}
	return d, nil
}

const fabricNames = "loopback, myrinet, gige, tcp, udp"

var (
	simFabrics  = map[string]func() simnet.Config{"myrinet": simnet.Myrinet, "gige": simnet.GigE}
	realFabrics = map[string]func() portals.Fabric{"loopback": portals.Loopback, "tcp": portals.TCP, "udp": portals.UDP}
)

// fabricByName is the one name → fabric switch: loopback (in-process),
// myrinet / gige (simulated packet fabrics under rtscts reliability), tcp
// and udp (real kernel sockets). loss is a per-packet loss rate, which only
// the simulated fabrics can inject.
func fabricByName(name string, loss float64) (portals.Fabric, error) {
	if sim, ok := simFabrics[name]; ok {
		cfg := sim()
		cfg.LossRate = loss
		return portals.SimFabric(cfg, rtscts.DefaultConfig()), nil
	}
	fab, ok := realFabrics[name]
	if !ok {
		return portals.Fabric{}, fmt.Errorf("unknown fabric (%s)", fabricNames)
	}
	if loss != 0 {
		return portals.Fabric{}, fmt.Errorf("-loss needs a simulated fabric (myrinet or gige); for real-socket loss see internal/transport/udp/proxytest")
	}
	return fab(), nil
}

// fabricFlag declares -fabric; the name is checked when it is parsed.
func fabricFlag(fs *flag.FlagSet, def string) *string {
	return checked(fs, "fabric", def, "fabric: "+fabricNames, func(s string) (string, error) {
		_, err := fabricByName(s, 0)
		return s, err
	})
}

// capture turns on what -trace and -metrics ask for and returns the
// function that writes the artifacts once every run has succeeded.
func (c *common) capture() (finish func(w io.Writer) error) {
	var rec *trace.Recorder
	if c.traceOut != "" {
		rec = trace.Enable()
	}
	if c.metricsOut != "" {
		c.reg = metrics.NewRegistry()
	}
	return func(w io.Writer) error {
		if rec != nil {
			trace.Disable()
			if err := writeArtifact(c.traceOut, func(f io.Writer) error {
				return trace.WriteChromeTrace(f, rec.Snapshot())
			}); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			fmt.Fprintf(w, "# trace: %s (open in ui.perfetto.dev; validate with cmd/tracecheck)\n", c.traceOut)
		}
		if c.reg != nil {
			if err := writeArtifact(c.metricsOut, c.reg.WriteText); err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
			fmt.Fprintf(w, "# metrics: %s\n", c.metricsOut)
		}
		return nil
	}
}

// writeArtifact renders an artifact and writes it to path whole (the
// artifact is the point of the flag, so a short write must not pass
// silently) — unless there is nothing to write: not every driver registers
// its machines with -metrics (main.go lists those that do), and an empty
// file would pass for "every counter is zero".
func writeArtifact(path string, emit func(io.Writer) error) error {
	var text bytes.Buffer
	if err := emit(&text); err != nil {
		return err
	}
	if text.Len() == 0 {
		return errors.New("nothing to write: this experiment's driver exposes nothing to the flag")
	}
	return os.WriteFile(path, text.Bytes(), 0o644)
}
