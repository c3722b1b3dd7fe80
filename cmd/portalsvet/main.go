// Command portalsvet runs the repo's custom static-analysis suite: the
// named checks enforcing the Portals concurrency invariants (application
// bypass, lock discipline, lock ordering, guarded fields and atomics-only
// counters, and checked errors). See docs/LINT.md
// and internal/lint.
//
// Usage:
//
//	go run ./cmd/portalsvet [flags] [packages]
//
// Packages default to ./... . Diagnostics print as
// "file:line: [check] message"; the exit code is 1 when there are
// findings, 2 when the module fails to load or type-check, 0 otherwise. Suppress an individual finding with
//
//	//lint:ignore <check> <reason>
//
// on the offending line or the one above it.
//
// CI integration:
//
//	-sarif    emit findings as SARIF 2.1.0 (stdout, or -o file) for GitHub
//	          code scanning
//	-o file   write the report there and print the text diagnostics to
//	          stdout as without -sarif
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// listChecks prints the -list table: one line per check.
func listChecks(w io.Writer, checks []lint.Check) {
	for _, c := range checks {
		fmt.Fprintf(w, "%-20s %s\n", c.Name(), c.Doc())
	}
}

func main() {
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	listFlag := flag.Bool("list", false, "list available checks and exit")
	sarifFlag := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	outFlag := flag.String("o", "", "with -sarif: write findings to this file instead of stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: portalsvet [-checks a,b] [-list] [-sarif [-o file]] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := lint.AllChecks()
	if *listFlag {
		listChecks(os.Stdout, all)
		return
	}

	checks := all
	if *checksFlag != "" {
		byName := make(map[string]lint.Check, len(all))
		for _, c := range all {
			byName[c.Name()] = c
		}
		checks = nil
		for _, name := range strings.Split(*checksFlag, ",") {
			name = strings.TrimSpace(name)
			c, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "portalsvet: unknown check %q (use -list)\n", name)
				os.Exit(2)
			}
			checks = append(checks, c)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "portalsvet: %v\n", err)
		os.Exit(2)
	}

	diags := prog.Run(checks)
	if *sarifFlag {
		report, err := lint.MarshalSARIF(prog.Findings(diags))
		if err == nil {
			if *outFlag != "" {
				err = os.WriteFile(*outFlag, report, 0o644)
			} else {
				_, err = os.Stdout.Write(report)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "portalsvet: %v\n", err)
			os.Exit(2)
		}
	}
	if !*sarifFlag || *outFlag != "" {
		cwd, _ := os.Getwd()
		for _, d := range diags {
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
					d.Pos.Filename = rel
				}
			}
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "portalsvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
