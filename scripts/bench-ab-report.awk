# The one comparison rule of this repository (scripts/bench-ab.sh):
#
#   awk -v metrics="name better bound\n…" [-v nsbound=B] -f bench-ab-report.awk BASE_SAMPLES CHANGE_SAMPLES
#
# Each file holds one side's samples in run order, so line i of a name in the
# first file and line i of it in the second are one pair. A sample is either
# "name value" (a metric of the repository benchmark; `metrics` lists the
# rows to print with their direction and bound) or a line of `go test -bench`
# output, whose ns/op becomes one lower-is-better row under -v nsbound — the
# name as Go prints it less "Benchmark", the -benchmem and custom-metric
# columns ignored, the iteration count added to ops_attempted.
#
# Per row: each side's median and quartiles, the pairs the change won (ties
# count for neither side), the median's move, and the verdict. A difference
# inside the base's own interquartile spread is "not moved" only when that
# spread is inside the bound; a base that scatters wider than the bound
# cannot show a regression of the bound's size: "unresolved". Beyond the
# spread, better is BETTER only with nine tenths of the pairs won, and worse
# is "worse" inside the bound and "WORSE" beyond it. A row listed without a
# bound (a per-layer metric of a traced run: it says where, not whether) is
# only ever "not moved" or "moved", better or worse, against that spread.
function quantile(a, n, q,    pos, lo, frac) {   # a[1..n] sorted ascending
	pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
	return lo >= n ? a[n] : a[lo] + frac * (a[lo + 1] - a[lo])
}
function sorted(src, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
function add(name, v) { cnt[side, name]++; val[side, name, cnt[side, name]] = v + 0 }
FNR == 1 { side++ }
/^Benchmark/ {
	if ($4 != "ns/op") next
	name = $1; sub(/^Benchmark/, "", name)
	if (!(name in seen)) { seen[name] = 1; found[++nfound] = name }
	add(name, $3); add("ops_attempted", $2); next
}
NF == 2 { add($1, $2) }
END {
	nm = split(metrics, m, "\n")
	for (k = 1; k <= nfound; k++) m[++nm] = found[k] " lower " nsbound
	width = 20
	for (k = 1; k <= nm; k++) { split(m[k], f, " "); if (length(f[1]) >= width) width = length(f[1]) + 1 }
	row = "%-" width "s %-34s %-34s %-9s %-9s %s\n"
	printf row, "metric", "base median [q1, q3]", "change median [q1, q3]", "won", "delta", "verdict"
	for (k = 1; k <= nm; k++) {
		split(m[k], f, " "); name = f[1]; lower = (f[2] == "lower"); bounded = (f[3] != ""); bound = f[3] + 0
		n = cnt[1, name]
		if (cnt[2, name] != n) {
			printf row, name, "", "", "", "", sprintf("not compared: %d base and %d change samples", n, cnt[2, name])
			continue
		}
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
		else if (!bounded)                verdict = (gap <= b3 - b1) ? "not moved (within the base spread)" : sprintf("moved, %s (beyond base IQR)", ((diff < 0) == lower) ? "better" : "worse")
		else if (gap <= b3 - b1)          verdict = (spread > bound) ? sprintf("unresolved (base spread %.0f%% is wider than the %.0f%% bound)", 100 * spread, 100 * bound) : "not moved (within the base spread)"
		else if ((diff < 0) == lower)     verdict = (won * 10 >= n * 9) ? "BETTER (beyond base IQR, won >= 9/10)" : "better in the median, but won too few pairs"
		else if (bm && gap / (bm < 0 ? -bm : bm) <= bound) verdict = sprintf("worse (beyond base IQR, inside the %.0f%% bound)", 100 * bound)
		else                              verdict = sprintf("WORSE (beyond base IQR and the %.0f%% bound)", 100 * bound)
		printf row, name,
			sprintf("%.4g [%.4g, %.4g]", bm, b1, b3), sprintf("%.4g [%.4g, %.4g]", cm, c1, c3),
			sprintf("%d/%d", won, n), bm ? sprintf("%+.1f%%", 100 * diff / bm) : "n/a", verdict
	}
	for (s = 1; s <= 2; s++) {
		att = failed = 0
		for (i = 1; i <= cnt[s, "ops_attempted"]; i++) { att += val[s, "ops_attempted", i]; failed += val[s, "ops_failed", i] }
		printf "%s: %.0f operations attempted, %.0f failed\n", s == 1 ? "base" : "change", att, failed
	}
}
