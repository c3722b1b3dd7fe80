#!/usr/bin/env bash
# mutants.sh — the mutation runs behind docs/LINT.md's ledger: which
# mechanism, a portalsvet check or the tests, catches a given defect.
#
# It copies the working tree into a scratch directory and, one mutant at a
# time, applies the mutant, runs the check command and restores the file.
# The mutants come in families, each named by its id prefix:
#   rel, pin, arena, use-, dbl-   the release sites (the ownership pass's
#       trial): every `.Release()`, `pins.Exit()` and arena `Put` outside
#       tests, benchmark/ and internal/lint turned into a no-op (`_ = x`;
#       `_ = &s.pins` for a pin, which names nothing to release),
#       as the three git grep commands below list them, and six written by
#       hand, a use after release and a double release per family;
#   byp   a blocking call in an on* delivery handler (bypassviolation);
#   lkd   an Unlock dropped on one path, or a wait under a lock
#         (lockdiscipline);
#   lko   two acquisitions against their //lint:lockrank (lockorder);
#   gby   a //lint:guardedby field touched outside its lock (guardedby);
#   cke   an error of the portals API or of core dropped (checkederr);
#   gor   a loop's shutdown arm removed (goroutinelifecycle, retired to
#         the goroutine half of the tests' ledger);
#   ring  the rtscts window ring's growth broken (no check; tier-1 or
#         make alloc-smoke must catch each).
# The check defaults to tier-1 (go build ./... && go test ./...) with a
# timeout, so a mutant that hangs a test fails it, and -failfast, so the
# run stops at its first failing test (the verdict is the same, and far
# sooner). Each mutant prints one line:
#   id <TAB> file:line <TAB> caught|missed <TAB> what failed
# where "what failed" is, per failing package, its first failing test, a
# panic, a hang or the ledger's exit check (see failures below); for a
# portalsvet run, the checks that reported.
#
# Usage: bash scripts/mutants.sh [id-regexp [check-command]]
# A family's columns of docs/LINT.md's check trial, e.g. the gor family's:
# the check (run it in a checkout that still has the check), the tests —
# tier-1, then -race, leaving out the three tests that run the analyzer
# itself — and, for a mutant both miss, make flake over its package:
#   bash scripts/mutants.sh '^gor' 'go run ./cmd/portalsvet ./...'
#   S="-skip '^(TestCmdPortalsvet|TestRepoIsClean|TestRepoLedger)\$'"
#   bash scripts/mutants.sh '^gor' "go build ./... && go test -failfast -timeout 120s $S ./... && go test -race -failfast -timeout 120s $S ./..."
#   bash scripts/mutants.sh '^lko-core$' 'make flake FLAKEPKGS=./internal/core RUN=. COUNT=20'
# and one package's tests alone:
#   bash scripts/mutants.sh '^pin' 'go test -count=1 ./internal/core'
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
	pin) s="${line}s/^\([[:space:]]*\)s\.pins\.Exit()\$/\1_ = \&s.pins/" ;;
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
run dbl-pin internal/core/initiate.go startPut '/^func (s \*State) startPut/,/^}/{s/^\ts\.pins\.Exit()$/&\n&/;}'
run dbl-arena internal/core/me.go unlinkME '/^func (s \*State) unlinkME/,/^}/{s/^\ts\.meArena\.Put(me)$/&\n&/;}'

# The check families. A mutant is a defect of the kind its check exists to
# catch, at a real site of the check.

# bypassviolation: the delivery handlers block. nicsim's onBatch sleeps to
# pace a burst bigger than a lane; rtscts' onPacket waits at Attach's gate
# (gatedPacket's, folded in); the grant's yield becomes a sleep.
run byp-nicsim internal/nicsim/nicsim.go onBatch '/^func (n \*Node) onBatch(/a\
\tif len(batch) > laneDepth {\
\t\ttime.Sleep(time.Microsecond)\
\t}'
run byp-gate internal/rtscts/conn.go onPacket '/^func (c \*Conn) onPacket(/a\
\t<-c.ready'
run byp-yield internal/rtscts/sender.go grantReceived 's/^\t\tyield()$/\t\ttime.Sleep(time.Microsecond)/'

# lockdiscipline: an early return keeps its lock (rtscts onData on a closed
# receiver, core MDUpdate refused for pending events, a second nicsim
# Close), or nicsim's Close waits for its lanes under the node lock.
run lkd-rtscts internal/rtscts/receiver.go onData '/^func (c \*Conn) onData(/,/^}/{/^\tif r\.closed {$/{n;/^\t\tr\.mu\.Unlock()$/d;};}'
run lkd-core internal/core/md.go MDUpdate '/^\t\tif q\.Pending() > 0 {$/{n;/^\t\t\ts\.resMu\.Unlock()$/d;}'
run lkd-nicsim internal/nicsim/nicsim.go Close '/^func (n \*Node) Close() error {$/,/^}/{/^\tif n\.closed {$/{n;/^\t\tn\.mu\.Unlock()$/d;};}'
run lkd-wait internal/nicsim/nicsim.go Close '/^func (n \*Node) Close() error {$/,/^}/{/^\tn\.procs\.Clear()$/{n;/^\tn\.mu\.Unlock()$/d;};s/^\tn\.wg\.Wait()$/&\n\tn.mu.Unlock()/;}'

# lockorder: rtscts lists a receiver for the flush's ack under its own mu
# (declared Conn.ackMu < peerReceiver.mu); core closes a counter's parker
# under ctr.mu (declared sole); tcp's Close takes each connection's write
# lock under the endpoint's (declared sendConn.mu < endpoint.mu).
run lko-rtscts internal/rtscts/receiver.go onData '/^func (c \*Conn) onData(/,/^}/{/^\tr\.mu\.Unlock()$/{N;s/^\tr\.mu\.Unlock()\n\tif listed {$/\tif listed {/;};/^\t\tc\.ackMu\.Unlock()$/{N;s/\n\t}$/\n\t}\n\tr.mu.Unlock()/;};}'
run lko-core internal/core/ct.go close '/^func (c \*ctr) close() int {$/,/^}/{/^\tc\.mu\.Unlock()$/{N;s/^\tc\.mu\.Unlock()\n\tc\.park\.Close()$/\tc.park.Close()\n\tc.mu.Unlock()/;};}'
run lko-tcp internal/transport/tcp/tcp.go Close '/^func (ep \*endpoint) Close() error {$/,/^}/{s/^\t\tconns = append(conns, sc)$/\t\tsc.mu.Lock()\n&\n\t\tsc.mu.Unlock()/;}'

# guardedby: one field each of rtscts (peerSender.owedCTS, counted before
# the lock), core (memDesc.unlinked, read before the owner lock), nicsim
# (Node.closed, a fast-fail read before the lock), eventq (Queue.produced,
# stepped after the unlock) and the flight recorder (Recorder.pos, likewise).
run gby-rtscts internal/rtscts/sender.go oweCTS '/^func (s \*peerSender) oweCTS() {$/,/^}/{/^\ts\.mu\.Lock()$/{N;s/^\ts\.mu\.Lock()\n\ts\.owedCTS++$/\ts.owedCTS++\n\ts.mu.Lock()/;};}'
run gby-core internal/core/md.go MDStatus '/^func (s \*State) MDStatus(/,/^}/{/^\td\.owner\.Lock()$/{N;N;s/^\td\.owner\.Lock()\n\tdefer d\.owner\.Unlock()\n\tgone := d\.unlinked$/\tgone := d.unlinked\n\td.owner.Lock()\n\tdefer d.owner.Unlock()/;};}'
run gby-nicsim internal/nicsim/nicsim.go AddProcess '/^func (n \*Node) AddProcess(/,/^}/{/^\tn\.mu\.Lock()$/{N;N;N;N;s/^\tn\.mu\.Lock()\n\tdefer n\.mu\.Unlock()\n\(\tif n\.closed {\n\t\treturn types\.ErrClosed\n\t}\)$/\1\n\tn.mu.Lock()\n\tdefer n.mu.Unlock()/;};}'
run gby-eventq internal/eventq/eventq.go post '/^func (q \*Queue) post(/,/^}/{/^\tq\.ring\[q\.produced%n\] = ev$/{n;N;s/^\tq\.produced++\n\tq\.mu\.Unlock()$/\tq.mu.Unlock()\n\tq.produced++/;};}'
run gby-trace internal/obs/trace/trace.go Record '/^func (r \*Recorder) Record(/,/^}/{/^\tr\.pos++$/{N;s/^\tr\.pos++\n\tr\.mu\.Unlock()$/\tr.mu.Unlock()\n\tr.pos++/;};}'

# checkederr: the portals MDUnlink wrapper drops core's error; mpi drops
# the MEUnlink error that says a receive lost its race, and Win.Free the
# one that says the window is still in use; coll drops CTFree's.
run cke-portals portals/ni.go MDUnlink 's/^func (ni \*NI) MDUnlink(md Handle) error { return ni\.state\.MDUnlink(md) }$/func (ni *NI) MDUnlink(md Handle) error { ni.state.MDUnlink(md); return nil }/'
run cke-mpi internal/mpi/progress.go consumeRec 's/^\tif err := c\.ni\.MEUnlink(req\.me); err != nil {$/\tif c.ni.MEUnlink(req.me); false {/'
run cke-win internal/mpi/win.go Free '/^func (w \*Win) Free() error {$/,/^}/{/^\tif err := w\.c\.ni\.MEUnlink(w\.me); err != nil {$/{N;N;s/.*/\tw.c.ni.MEUnlink(w.me)/;};}'
run cke-coll internal/coll/triggered.go Close '/^\t\tif err := t\.ni\.CTFree(ct); err != nil \&\& first == nil {$/{N;N;s/.*/\t\tt.ni.CTFree(ct)/;}'

# goroutinelifecycle: simnet's link goroutine waits for packets and never
# for the close; udp's writer likewise; nicsim's Close never closes the
# lanes' channels; the fabrics' Handoff.Serve loop ignores the close.
run gor-simnet internal/transport/simnet/link.go run '/^func (l \*link) run() {$/,/^}/{s/^\tfor !l\.closed\.Load() {$/\tfor {/;s/^\t\tfor len(l\.queue) == 0 \&\& !l\.closed\.Load() {$/\t\tfor len(l.queue) == 0 {/;}'
run gor-udp internal/transport/udp/udp.go writeLoop 's/^\t\tfor len(nd\.sendQ) == 0 \&\& !nd\.closed {$/\t\tfor len(nd.sendQ) == 0 {/'
run gor-nicsim internal/nicsim/nicsim.go Close '/^func (n \*Node) Close() error {$/,/^}/{/^\tfor _, ln := range n\.lanes {$/{N;N;d;};}'
run gor-handoff internal/transport/transport.go deliver '/^func (q \*Handoff) deliver(/,/^}/{s/^\tfor !q\.closed {$/\tfor {/;}'

# The window ring (rtscts peerSender.grow): growth that copies the slots
# without moving each descriptor to seq % new; growth capped below the live
# window; a ring given up when the window drains, so that every message
# allocates a new one.
run ring-index internal/rtscts/sender.go grow '/^func (s \*peerSender) grow() {$/,/^}/{/^\tfor seq := s\.base; seq < s\.nextSeq; seq++ {$/{N;N;s/.*/\tcopy(ring, s.inFlight)/;};}'
run ring-cap internal/rtscts/sender.go grow '/^func (s \*peerSender) grow() {$/,/^}/{s/^\tring := make(\[\]txDesc, min(2\*len(s\.inFlight), s\.c\.cfg\.Window))$/\tring := make([]txDesc, min(2*len(s.inFlight), s.c.cfg.Window\/2))/;}'
run ring-free internal/rtscts/sender.go onAck '/^func (s \*peerSender) onAck(/,/^}/{s/^\t\ts\.lastSend = now$/&\n\t\tif s.base == s.nextSeq {\n\t\t\ts.inFlight = make([]txDesc, min(ringStart, s.c.cfg.Window))\n\t\t}/;}'
