#!/usr/bin/env bash
# Same-run A/B, the one way this repository compares performance: the working
# tree against a base commit, in alternating pairs, on this machine, now.
#
#   scripts/bench-ab.sh BASE WORKLOAD [PAIRS]              (make bench-ab BASE=… WORKLOAD=… [PAIRS=…] [TRACE=1])
#   scripts/bench-ab.sh BASE bench=REGEXP [PAIRS [PKG…]]   (make bench-ab BASE=… BENCH=… [PKGS="…"] [PAIRS=…])
#
# BASE is a git ref, checked out into a throw-away `git worktree` — or a
# directory that already holds a checkout of the base, used as it is (`.` is
# the working tree against itself: an A/A run, which must read "not moved").
# Which tree goes first alternates from pair to pair, so drift of the machine
# hits both sides alike.
#
# WORKLOAD: each pair runs `bash benchmark/run.sh --workload WORKLOAD --seed S
# --seconds 36 --trace 0` (BENCHMARK.json's run_seconds) once in each tree
# with the same fresh seed S; the rows are the end-to-end metrics
# BENCHMARK.json declares, each with its own bound. WORKLOAD=gated runs every
# workload BENCHMARK.json lists — the one command for "nothing else moved":
# pair i of every workload runs before pair i+1 of any, so the workloads share
# the machine's drift too, and each gets its own table. With TRACE=1 in the
# environment the same pairs run with `--trace 1` and the rows are the
# per-layer metrics BENCHMARK.json declares: a direction and no bound, so a row
# reads "moved" or "not moved" against the base's own spread and nothing else —
# where a saving went, never whether there was one (tracing is on).
#
# bench=REGEXP: the Go microbenchmarks REGEXP selects in each PKG (default `.`,
# the root package's bench_test.go). Each tree's test binaries are built once
# with `go test -c`; each pair runs them once per tree from their package
# directories at Go's default -benchtime and the environment's GOMAXPROCS.
# Every `Benchmark…` line's ns/op is one lower-is-better row, bounded like
# op_p50_us, the repository benchmark's own per-operation time; each package
# gets its own table.
#
# Both inputs end in scripts/bench-ab-report.awk, which holds the comparison
# rule — the choosing-metrics guide's §8: medians, quartiles, pairs won, and
# the base's own interquartile spread as the yardstick.
#
# Nothing under benchmark/ is touched; both trees build into their own
# .bench_build/, test binaries into the throw-away directory.
set -eu

if [ $# -lt 2 ]; then
	echo "usage: $0 BASE WORKLOAD|gated [PAIRS]" >&2
	echo "       $0 BASE bench=REGEXP [PAIRS [PKG...]]" >&2
	exit 2
fi
base=$1 what=$2 pairs=${3:-10}
shift $(( $# < 3 ? $# : 3 ))
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

work="$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")"
worktree=""
cleanup() {
	if [ -n "$worktree" ]; then
		git worktree remove --force "$worktree" >/dev/null 2>&1 || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT

if [ -d "$base" ]; then
	base_dir="$(cd "$base" && pwd)"
	base_name="$base_dir"
else
	worktree="$work/tree"
	git worktree add --detach "$worktree" "$base" >/dev/null
	base_dir="$worktree"
	base_name="$(git rev-parse --short "$base")"
fi

# name, direction and bound of every metric of one section of the
# pretty-printed spec; a per-layer metric has no bound.
spec_metrics() {
	awk -v section="\"$1\"" '
		index($0, section) { on = 1 }
		on && /^[[:space:]]*\]/ { on = 0 }
		on && /"name"/   { gsub(/[",]/, ""); name = $2 }
		on && /"better"/ { gsub(/[",]/, ""); better = $2 }
		on && /"bound"/  { gsub(/[",]/, ""); bound = $2 }
		on && /\}/       { print name, better, bound; bound = "" }
	' BENCHMARK.json
}
trace=${TRACE:-0}
section=end_to_end shown=op_p50_us
if [ "$trace" = 1 ]; then
	section=per_layer shown=portals.ops_per_s
fi
metrics="$(spec_metrics "$section")"
[ -n "$metrics" ] || { echo "bench-ab: no $section metrics in BENCHMARK.json" >&2; exit 2; }

# Either input defines its units (one table each), run_side SIDE DIR SEED UNIT
# — one run, appending its samples to $(samples SIDE UNIT) — and progress UNIT,
# the rest of the line a finished pair prints.
samples() { echo "$work/$1.$(echo "$2" | tr / _)"; }
seed0=$(( $(date +%s) % 1000000 ))
case "$what" in
bench=*)
	bench=${what#bench=}
	[ -n "$bench" ] || { echo "bench-ab: empty benchmark regexp" >&2; exit 2; }
	# Package directories relative to the tree's root, those with tests only.
	units="$(go list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.Dir}}{{end}}' "${@:-.}" | sed "s|^$root|.|")"
	[ -n "$units" ] || { echo "bench-ab: no package with tests in ${*:-.}" >&2; exit 2; }
	# Sample files hold go's own output lines: the reporter reads them.
	nsbound="$(spec_metrics end_to_end | awk '$1 == "op_p50_us" { print $3 }')"
	metrics=""
	for u in $units; do
		(cd "$base_dir" && go test -c -o "$(samples base "$u").test" "$u")
		go test -c -o "$(samples change "$u").test" "$u"
	done
	run_side() {
		local out
		out="$(cd "$2/$4" && "$(samples "$1" "$4").test" -test.run='^$' -test.bench="$bench" -test.timeout=30m)" ||
			{ echo "bench-ab: $1 benchmarks of $4 failed:" >&2; echo "$out" >&2; exit 1; }
		echo "$out" | grep '^Benchmark' >>"$(samples "$1" "$4")" ||
			{ echo "bench-ab: $bench matches no benchmark of $4 in the $1 tree" >&2; exit 1; }
	}
	progress() { echo "$1: $(grep -c . "$(samples base "$1")") base and $(grep -c . "$(samples change "$1")") change samples"; }
	echo "bench-ab: -bench '$bench' in $(echo $units), $pairs pairs, base $base_name vs working tree"
	;;
*)
	[ -f "$base_dir/benchmark/run.sh" ] || { echo "bench-ab: $base_dir has no benchmark/run.sh" >&2; exit 2; }
	# The run length is the benchmark's own (36 s), the same on both sides.
	seconds="$(awk '/"run_seconds"/ { gsub(/[^0-9.]/, ""); print }' BENCHMARK.json)"
	units=$what
	if [ "$what" = gated ]; then
		units="$(awk '
			/"workloads"/ { on = 1 }
			on && /^[[:space:]]*\]/ { on = 0 }
			on && /"name"/ { gsub(/[",]/, ""); print $2 }
		' BENCHMARK.json)"
		[ -n "$units" ] || { echo "bench-ab: no workloads in BENCHMARK.json" >&2; exit 2; }
	fi
	run_side() {
		local side=$1 dir=$2 seed=$3 w=$4 line
		line="$(cd "$dir" && bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)"
		case "$line" in
		'{"correct":true'*) ;;
		*) echo "bench-ab: $side run of $w (seed $seed) gave no correct result: $line" >&2; exit 1 ;;
		esac
		printf '%s\n' "$line" | awk -v metrics="$metrics" '
			function num(key,    re) {
				re = "\"" key "\":(\\{\"value\":)?[-+0-9.eE]+"
				if (!match($0, re)) return "nan"
				s = substr($0, RSTART, RLENGTH); sub(/.*:/, "", s); return s
			}
			{
				n = split(metrics, m, "\n")
				for (i = 1; i <= n; i++) { split(m[i], f, " "); print f[1], num(f[1]) }
				print "ops_attempted", num("attempted")
				print "ops_failed", num("failed")
			}' >>"$(samples "$side" "$w")"
	}
	progress() {
		local last='$1 == shown { v = $2 } END { printf "%.1f", v }'
		echo "(seed $seed) $1: $shown base $(awk -v shown="$shown" "$last" "$(samples base "$1")")  change $(awk -v shown="$shown" "$last" "$(samples change "$1")")"
	}
	echo "bench-ab: $(echo $units), $pairs pairs x ${seconds}s --trace $trace, base $base_name vs working tree, seeds $((seed0 + 1))..$((seed0 + pairs))"
	;;
esac

for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i))
	for u in $units; do
		if [ $((i % 2)) -eq 1 ]; then
			run_side base "$base_dir" "$seed" "$u"; run_side change "$root" "$seed" "$u"
		else
			run_side change "$root" "$seed" "$u"; run_side base "$base_dir" "$seed" "$u"
		fi
		echo "  pair $i $(progress "$u")"
	done
done

for u in $units; do
	printf '\n== %s\n' "$u"
	awk -v metrics="$metrics" -v nsbound="${nsbound:-}" -f scripts/bench-ab-report.awk "$(samples base "$u")" "$(samples change "$u")"
done
