#!/usr/bin/env bash
# Same-run A/B of the repository benchmark: the working tree against a base
# commit, in alternating pairs, on this machine, now.
#
#   scripts/bench-ab.sh BASE WORKLOAD [PAIRS]      (or: make bench-ab BASE=… WORKLOAD=… [PAIRS=…])
#
# BASE is a git ref, checked out into a throw-away `git worktree` — or a
# directory that already holds a checkout of the base, used as it is. Each
# pair runs `bash benchmark/run.sh --workload WORKLOAD --seed S --seconds 36
# --trace 0` (BENCHMARK.json's run_seconds) once in each tree with the same fresh seed S; which tree goes
# first alternates from pair to pair, so drift of the machine hits both sides
# alike. For every end-to-end metric BENCHMARK.json declares it prints each
# side's median and quartiles, how many pairs the change won (ties count for
# neither side), and whether the medians differ by more than the base's own
# interquartile spread — the rule of the choosing-metrics guide, §8. A
# difference inside that spread is "not moved" only when the spread itself is
# inside the metric's bound; a base that scatters wider than the bound cannot
# show a regression of the bound's size, and the verdict is "unresolved". A
# median that is worse by more than the spread reads "worse" while it is
# inside the bound and "WORSE" beyond it.
#
# WORKLOAD=gated runs every workload BENCHMARK.json lists — the one command
# for "nothing else moved": pair i of every workload runs before pair i+1 of
# any, so the workloads share the machine's drift too, and each gets its own
# table.
#
# Nothing under benchmark/ is touched; both trees build into their own
# .bench_build/.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 BASE WORKLOAD [PAIRS]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=${3:-10}
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
# The run length is the benchmark's own (36 s), the same on both sides.
seconds="$(awk '/"run_seconds"/ { gsub(/[^0-9.]/, ""); print }' BENCHMARK.json)"

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
[ -f "$base_dir/benchmark/run.sh" ] || { echo "bench-ab: $base_dir has no benchmark/run.sh" >&2; exit 2; }

# name, direction and bound of every end-to-end metric, from the
# pretty-printed spec.
metrics="$(awk '
	/"end_to_end"/ { on = 1 }
	on && /^[[:space:]]*\]/ { on = 0 }
	on && /"name"/   { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); better = $2 }
	on && /"bound"/  { gsub(/[",]/, ""); print name, better, $2 }
' BENCHMARK.json)"
[ -n "$metrics" ] || { echo "bench-ab: no end_to_end metrics in BENCHMARK.json" >&2; exit 2; }

workloads=$workload
if [ "$workload" = gated ]; then
	workloads="$(awk '
		/"workloads"/ { on = 1 }
		on && /^[[:space:]]*\]/ { on = 0 }
		on && /"name"/ { gsub(/[",]/, ""); print $2 }
	' BENCHMARK.json)"
	[ -n "$workloads" ] || { echo "bench-ab: no workloads in BENCHMARK.json" >&2; exit 2; }
fi

# run_side SIDE DIR SEED WORKLOAD: one run; appends "metric value" lines to
# $work/SIDE.WORKLOAD.
run_side() {
	local side=$1 dir=$2 seed=$3 w=$4 line
	line="$(cd "$dir" && bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
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
		}' >>"$work/$side.$w"
}

seed0=$(( $(date +%s) % 1000000 ))
echo "bench-ab: $(echo $workloads), $pairs pairs x ${seconds}s, base $base_name vs working tree, seeds $((seed0 + 1))..$((seed0 + pairs))"
for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i))
	for w in $workloads; do
		if [ $((i % 2)) -eq 1 ]; then
			run_side base "$base_dir" "$seed" "$w"; run_side change "$root" "$seed" "$w"
		else
			run_side change "$root" "$seed" "$w"; run_side base "$base_dir" "$seed" "$w"
		fi
		echo "  pair $i (seed $seed) $w: op_p50_us base $(awk '$1=="op_p50_us"{v=$2} END{printf "%.1f", v}' "$work/base.$w")  change $(awk '$1=="op_p50_us"{v=$2} END{printf "%.1f", v}' "$work/change.$w")"
	done
done

# Per workload and metric: medians, quartiles, wins, and the verdict.
for w in $workloads; do
printf '\n== %s\n' "$w"
awk -v metrics="$metrics" -v pairs="$pairs" '
	function quantile(a, n, q,    pos, lo, frac) {   # a[1..n] sorted ascending
		pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
		return lo >= n ? a[n] : a[lo] + frac * (a[lo + 1] - a[lo])
	}
	function sorted(src, n, dst,    i, j, t) {
		for (i = 1; i <= n; i++) dst[i] = src[i]
		for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
	}
	FNR == 1 { side++ }
	{ cnt[side, $1]++; val[side, $1, cnt[side, $1]] = $2 + 0 }
	END {
		printf "%-20s %-34s %-34s %-9s %-9s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "won", "delta", "verdict"
		nm = split(metrics, m, "\n")
		for (k = 1; k <= nm; k++) {
			split(m[k], f, " "); name = f[1]; lower = (f[2] == "lower"); bound = f[3] + 0
			n = cnt[1, name]
			won = lost = 0
			for (i = 1; i <= n; i++) {
				b[i] = val[1, name, i]; c[i] = val[2, name, i]
				if (c[i] == b[i]) continue
				if ((c[i] < b[i]) == lower) won++; else lost++
			}
			sorted(b, n, sb); sorted(c, n, sc)
			bm = quantile(sb, n, 0.5); b1 = quantile(sb, n, 0.25); b3 = quantile(sb, n, 0.75)
			cm = quantile(sc, n, 0.5); c1 = quantile(sc, n, 0.25); c3 = quantile(sc, n, 0.75)
			diff = cm - bm; gap = diff < 0 ? -diff : diff
			spread = bm ? (b3 - b1) / (bm < 0 ? -bm : bm) : 0
			if (n < 4)                        verdict = "too few pairs for a spread"
			else if (gap <= b3 - b1)          verdict = (spread > bound) ? sprintf("unresolved (base spread %.0f%% is wider than the %.0f%% bound)", 100 * spread, 100 * bound) : "not moved (within the base spread)"
			else if ((diff < 0) == lower)     verdict = (won * 10 >= n * 9) ? "BETTER (beyond base IQR, won >= 9/10)" : "better in the median, but won too few pairs"
			else if (bm && gap / (bm < 0 ? -bm : bm) <= bound) verdict = sprintf("worse (beyond base IQR, inside the %.0f%% bound)", 100 * bound)
			else                              verdict = sprintf("WORSE (beyond base IQR and the %.0f%% bound)", 100 * bound)
			printf "%-20s %-34s %-34s %-9s %-9s %s\n", name,
				sprintf("%.4g [%.4g, %.4g]", bm, b1, b3), sprintf("%.4g [%.4g, %.4g]", cm, c1, c3),
				sprintf("%d/%d", won, n), bm ? sprintf("%+.1f%%", 100 * diff / bm) : "n/a", verdict
		}
		for (s = 1; s <= 2; s++) {
			att = failed = 0
			for (i = 1; i <= cnt[s, "ops_attempted"]; i++) { att += val[s, "ops_attempted", i]; failed += val[s, "ops_failed", i] }
			printf "%s: %d operations attempted, %d failed\n", s == 1 ? "base" : "change", att, failed
		}
	}
' "$work/base.$w" "$work/change.$w"
done
