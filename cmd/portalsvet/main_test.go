package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

var update = flag.Bool("update", false, "rewrite testdata/list.txt from this run")

// TestListGolden pins `portalsvet -list` to the byte: the check names,
// their order and their one-line docs are the analyzer's public surface
// (-checks arguments, //lint:ignore names, SARIF rule ids).
func TestListGolden(t *testing.T) {
	var buf bytes.Buffer
	listChecks(&buf, lint.AllChecks())
	path := filepath.Join("testdata", "list.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden (run `go test -update`): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-list output differs from %s (`go test -update` rewrites it)\n--- got\n%s--- want\n%s", path, buf.Bytes(), want)
	}
}
