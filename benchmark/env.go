package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is recorded in every result file; -compare refuses to diff
// results whose environments differ.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func captureEnv() environment {
	e := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Kernel: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// The toolchain stamps the revision when it builds inside a git
	// checkout; elsewhere (an exported tree, `go run`) there is none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// comparable reports whether two results were measured under the same
// conditions. The commit is what a comparison is about, so it may differ.
func (e environment) comparable(o environment) bool {
	e.Commit, o.Commit = "", ""
	return e == o
}

// pinProcs fixes GOMAXPROCS at min(NumCPU, 4): the load never uses more
// than two driver goroutines, and a fixed value keeps lane counts (which
// default to GOMAXPROCS) the same on larger hosts.
func pinProcs() {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
}
