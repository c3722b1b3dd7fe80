#!/usr/bin/env bash
# loc.sh — line counts per Go package, one convention for every CHANGES.md
# entry: `make loc [PKGS="./internal/lint ./cmd/portalsvet"]`.
#
# Per package directory it prints
#   non-test  `wc -l` over *.go minus *_test.go
#   code      the same files without blank lines and comment-only lines
#             (// lines and /* ... */ blocks), so deleting comments cannot
#             pass for a reduction
#   test      `wc -l` over *_test.go
# and a total row. Arguments are package directories; a trailing /...
# (and the default, ./...) means every directory below that holds Go files.
# testdata, hidden and underscore directories are skipped like the go tool
# skips them.
set -euo pipefail

cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- ./...

dirs=()
for arg in "$@"; do
	case "$arg" in
	*/...) root=${arg%/...}
		while IFS= read -r d; do dirs+=("$d"); done < <(
			find "$root" -type d \( -name '.?*' -o -name '_*' -o -name testdata \) -prune -o \
				-type f -name '*.go' -printf '%h\n' | sort -u) ;;
	*) dirs+=("${arg%/}") ;;
	esac
done

# count FILE... prints "<lines> <code lines>" over the given files.
count() {
	[ $# -gt 0 ] || { echo "0 0"; return; }
	awk '
		{ lines++ }
		inblock { if (index($0, "*/")) inblock = 0; next }
		/^[ \t]*$/ { next }
		/^[ \t]*\/\// { next }
		/^[ \t]*\/\*/ { if (!index($0, "*/")) inblock = 1; next }
		{ code++ }
		END { printf "%d %d\n", lines, code }
	' "$@"
}

printf '%-36s %9s %9s %9s\n' package non-test code test
tn=0 tc=0 tt=0
for d in "${dirs[@]}"; do
	src=() tests=()
	for f in "$d"/*.go; do
		[ -f "$f" ] || continue
		case "$f" in *_test.go) tests+=("$f") ;; *) src+=("$f") ;; esac
	done
	read -r n c < <(count "${src[@]}")
	read -r t _ < <(count "${tests[@]}")
	printf '%-36s %9d %9d %9d\n' "$d" "$n" "$c" "$t"
	tn=$((tn + n)) tc=$((tc + c)) tt=$((tt + t))
done
printf '%-36s %9d %9d %9d\n' total "$tn" "$tc" "$tt"
