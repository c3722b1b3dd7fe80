#!/usr/bin/env bash
# mutants.sh — the release-site mutation run behind docs/LINT.md's ledger
# table: which check catches a lost, early or doubled release.
#
# It copies the working tree into a scratch directory and, one mutant at a
# time, applies the mutant, runs the check and restores the file. A mutant is
#   - one release site turned into a no-op (`_ = x`): every `.Release()`,
#     `pins.Exit` and arena `Put` outside tests, benchmark/ and internal/lint,
#     as the three git grep commands below list them;
#   - or one of six hand-written mutants, a use-after-release and a
#     double release for each family (pooled buffer, RCU pin, arena entry).
# The check defaults to tier-1 (go build ./... && go test ./...) with a
# timeout, so a mutant that hangs a test fails it, and -failfast, so the
# run stops at its first failing test (the verdict is the same, and far
# sooner). Each mutant prints one line:
#   id <TAB> file:line <TAB> caught|missed <TAB> what failed
# where "what failed" is, per failing package, its first failing test, a
# panic, a hang or the ledger's exit check (see failures below).
#
# Usage: bash scripts/mutants.sh [id-regexp [check-command]]
# e.g.   bash scripts/mutants.sh '^pin' 'go test -count=1 ./internal/core'
set -u
only=${1:-.}
check=${2:-'go build ./... && go test -failfast -timeout 300s ./...'}
root=$(git rev-parse --show-toplevel) || exit 2
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
(cd "$root" && git ls-files -co --exclude-standard -z | xargs -0 tar cf - 2>/dev/null) | tar xf - -C "$work"
cd "$work" || exit 2

sites() {
	local x=(-- '*.go' ':!*_test.go' ':!benchmark' ':!internal/lint')
	git -C "$root" grep -n '\.Release()' "${x[@]}" | sed 's/^/rel /'
	git -C "$root" grep -n 'pins\.Exit' "${x[@]}" | sed 's/^/pin /'
	git -C "$root" grep -n 'Arena\.Put(' "${x[@]}" | sed 's/^/arena /'
}

# failures reads go test output and prints, per failing package, the first
# test that failed, a panic, the test a timeout caught running, or the
# ledger's exit check; for a portalsvet check, its findings' checks.
failures() {
	awk '
	/^--- FAIL: / && !t { t = $3 }
	/^panic: / && !t && !/timed out/ { t = "panic" }
	/running tests:/ { hang = 1; next }
	hang && !t { t = "hang in " $1; hang = 0 }
	/^pooltest: / { p = "ledger at exit" }
	/^FAIL\trepro/ { k = $2; sub(/^repro\/?/, "", k); r = r s (k == "" ? "." : k) ":" (t ? t : (p ? p : "?")); s = ";"; t = p = "" }
	/^ok / { t = p = "" }
	match($0, /\[[a-z]+\]/) && !/^FAIL/ { f[substr($0, RSTART, RLENGTH)] = 1 }
	END { if (r == "") for (k in f) r = r k; print r }'
}

# run id file line sed-script: mutate, check, restore, print the row.
run() {
	local id=$1 file=$2 line=$3 script=$4 out what
	[[ $id =~ $only ]] || return 0
	cp "$file" "$file.orig"
	sed -i -e "$script" "$file"
	if cmp -s "$file" "$file.orig"; then
		echo -e "$id\t$file:$line\tNOT APPLIED"
		mv "$file.orig" "$file"
		return
	fi
	if out=$(bash -c "$check" 2>&1); then
		echo -e "$id\t$file:$line\tmissed"
	else
		echo -e "$id\t$file:$line\tcaught\t$(failures <<<"$out")"
	fi
	mv "$file.orig" "$file"
}

n=0
while read -r fam loc; do
	n=$((n + 1))
	file=${loc%%:*} rest=${loc#*:} line=${rest%%:*}
	case $fam in
	rel) s="${line}s/^\([[:space:]]*\)\(defer \)\{0,1\}\(.*\)\.Release()\(.*\)\$/\1_ = \3\4/" ;;
	pin) s="${line}s/^\([[:space:]]*\)s\.pins\.Exit(\([a-z]*\))\$/\1_ = \2/" ;;
	arena) s="${line}s/^\([[:space:]]*\)s\.[a-z]*Arena\.Put(\([a-z]*\))\$/\1_ = \2/" ;;
	esac
	run "$fam$n" "$file" "$line" "$s"
done < <(sites)

# Use after release: rtscts.Conn.SendBuf gives its buffer up, then queues it;
# MDAttach reads the entry after closing its pin; unlinkMD reads the
# descriptor after putting it back.
run use-rel internal/rtscts/conn.go SendBuf '/^\t\treturn s\.enqueue(head, body)$/i\
\t\thead.Release()'
run use-pin internal/core/md.go MDAttach '/^func (s \*State) MDAttach/,/^}/{/^\tgone := entry\.unlinked$/{N;s/\(.*\)\n\(.*\)/\2\n\1/;}}'
run use-arena internal/core/md.go unlinkMD '/^func (s \*State) unlinkMD/,/^}/{/^\ts\.mdArena\.Put(d)$/d;/^\th, userPtr, eqh := /i\
\ts.mdArena.Put(d)
}'
# Double release: Outbound.Recycle, startPut's pin, unlinkME's entry.
run dbl-rel internal/core/translate.go Recycle 's/^\(\t\t\)o\.buf\.Release()$/&\n&/'
run dbl-pin internal/core/initiate.go startPut '/^func (s \*State) startPut/,/^}/{s/^\ts\.pins\.Exit(pin)$/&\n&/;}'
run dbl-arena internal/core/me.go unlinkME '/^func (s \*State) unlinkME/,/^}/{s/^\ts\.meArena\.Put(me)$/&\n&/;}'
