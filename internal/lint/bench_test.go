package lint

import "testing"

// BenchmarkPortalsvetLoad measures a full analyzer pass over this repo —
// parse + type-check every package, then run every registered check. This
// is the wall time `make lint` costs a developer; compare two trees with
// `make bench-ab BENCH=PortalsvetLoad PKGS=./internal/lint`. The process-wide
// stdlib importer cache means the first iteration pays stdlib resolution and
// later ones are module-only, matching the warm analyzer runs the cache
// makes typical.
func BenchmarkPortalsvetLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, err := Load(".", []string{"./..."})
		if err != nil {
			b.Fatalf("Load: %v", err)
		}
		if diags := prog.Run(AllChecks()); len(diags) != 0 {
			// The repo self-hosts clean; a finding here means the benchmark
			// is no longer measuring the steady state.
			b.Fatalf("unexpected diagnostics: %v", diags)
		}
	}
}
