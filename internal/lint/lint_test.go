package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the testdata/golden transcripts from this run")

// checkGolden compares the sorted full text of diags with
// testdata/golden/<name>.txt, so a refactor of the analyzer cannot reword,
// move or drop a diagnostic unnoticed: the `// want:` markers pin (file,
// line, check), the transcript pins the message. `go test -update`
// rewrites the transcripts.
func checkGolden(t *testing.T, name string, diags []Diagnostic) {
	t.Helper()
	lines := make([]string, len(diags))
	for i, d := range diags {
		lines[i] = d.String() + "\n"
	}
	sort.Strings(lines)
	got := strings.Join(lines, "")
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden transcript (run `go test -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s (`go test -update` rewrites it)\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// checksNamed selects checks from AllChecks by name, the way -checks does.
func checksNamed(names ...string) []Check {
	var out []Check
	for _, name := range names {
		for _, c := range AllChecks() {
			if c.Name() == name {
				out = append(out, c)
			}
		}
	}
	if len(out) != len(names) {
		panic(fmt.Sprintf("checksNamed(%q): unknown check", names))
	}
	return out
}

// runFixture type-checks an in-memory module and compares the diagnostics
// against `// want:<check>[,<check>]` markers in the fixture source: every
// marked line must produce exactly the named findings, and no unmarked
// finding may appear. The full diagnostic text is compared with the
// test's golden transcript (checkGolden).
func runFixture(t *testing.T, pkgs map[string]map[string]string, checks []Check) {
	t.Helper()
	prog, err := LoadSource("repro", pkgs)
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	diags := prog.Run(checks)
	checkGolden(t, t.Name(), diags)
	got := make(map[string]int)
	for _, d := range diags {
		got[fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.Check)]++
	}
	want := make(map[string]int)
	for _, files := range pkgs {
		for name, src := range files {
			for i, line := range strings.Split(src, "\n") {
				_, mark, ok := strings.Cut(line, "// want:")
				if !ok {
					continue
				}
				for _, check := range strings.Split(strings.Fields(mark)[0], ",") {
					want[fmt.Sprintf("%s:%d:%s", name, i+1, check)]++
				}
			}
		}
	}
	var problems []string
	for k, n := range want {
		if got[k] != n {
			problems = append(problems, fmt.Sprintf("want %d finding(s) %s, got %d", n, k, got[k]))
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			problems = append(problems, fmt.Sprintf("unexpected finding %s (x%d)", k, n))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, d := range diags {
			t.Logf("diag: %s", d)
		}
		t.Fatalf("diagnostic mismatch:\n  %s", strings.Join(problems, "\n  "))
	}
}

func TestBypassViolation(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/rtscts": {"conn.go": `package rtscts

type Conn struct{ ch chan int }

func (c *Conn) onPacket() { c.route() }

func (c *Conn) route() {
	<-c.ch // want:bypassviolation
}

func (c *Conn) onData() {
	//lint:ignore bypassviolation suppression fixture
	x := <-c.ch
	_ = x
}

// notDelivery is not an on* handler; blocking here is fine.
func (c *Conn) notDelivery() { <-c.ch }

// onAck waits in the handler itself (an Attach gate folded into it).
func (c *Conn) onAck() {
	<-c.ch // want:bypassviolation
}
`},
		"repro/internal/nicsim": {"node.go": `package nicsim

import "time"

type EQ struct{}

func (*EQ) EQWait() {}

type Node struct{ eq *EQ }

func (n *Node) onMessage() {
	n.eq.EQWait() // want:bypassviolation
	n.nap()
}

func (n *Node) nap() {
	time.Sleep(time.Millisecond) // want:bypassviolation
}
`},
		"repro/internal/other": {"other.go": `package other

// Same handler shape, but not a delivery package: no findings.
type T struct{ ch chan int }

func (t *T) onThing() { <-t.ch }
`},
	}, checksNamed("bypassviolation"))
}

func TestLockDiscipline(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/ld": {"ld.go": `package ld

import "sync"

type S struct {
	mu   sync.Mutex
	cond *sync.Cond
	ch   chan int
}

func (s *S) missingUnlock(b bool) {
	s.mu.Lock()
	if b {
		return // want:lockdiscipline
	}
	s.mu.Unlock()
}

func (s *S) blockUnderLock() {
	s.mu.Lock()
	<-s.ch // want:lockdiscipline
	s.mu.Unlock()
}

func (s *S) sendUnderLock() {
	s.mu.Lock()
	s.ch <- 1 // want:lockdiscipline
	s.mu.Unlock()
}

func (s *S) doubleLock() {
	s.mu.Lock()
	s.mu.Lock() // want:lockdiscipline
	s.mu.Unlock()
}

func (s *S) helperBlocks() { <-s.ch }

func (s *S) callsBlockerUnderLock() {
	s.mu.Lock()
	s.helperBlocks() // want:lockdiscipline
	s.mu.Unlock()
}

func (s *S) deferIsFine() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return 1
}

func (s *S) condWaitIsFine() {
	s.mu.Lock()
	for {
		s.cond.Wait()
		break
	}
	s.mu.Unlock()
}

func (s *S) selectWithDefaultIsFine() {
	s.mu.Lock()
	select {
	case <-s.ch:
	default:
	}
	s.mu.Unlock()
}

func (s *S) branchesBothUnlock(b bool) {
	s.mu.Lock()
	if b {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

func (s *S) suppressed() {
	s.mu.Lock()
	//lint:ignore lockdiscipline suppression fixture
	<-s.ch
	s.mu.Unlock()
}

// closeUnderLock waits for its workers while it holds the lock.
func (s *S) closeUnderLock(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want:lockdiscipline
	s.mu.Unlock()
}
`},
	}, checksNamed("lockdiscipline"))
}

func TestBypassViolationObsAPIs(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/obs/trace": {"trace.go": `package trace

// Stubs with the real package's names: classification is by package-path
// suffix plus function name, so empty bodies exercise the same rule.
func Record(stage uint8)     {}
func Snapshot() []int        { return nil }
func WriteDump(x []int)      {}
func Enable()                {}
`},
		"repro/internal/obs/metrics": {"metrics.go": `package metrics

type Registry struct{}

func (*Registry) CounterFunc(name string) {}
func (*Registry) WriteText()              {}

type Counter struct{}

func (*Counter) Add(d int64) {}
`},
		"repro/internal/nicsim": {"node.go": `package nicsim

import (
	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
)

type Node struct {
	c *metrics.Counter
	r *metrics.Registry
}

// The non-blocking fast path is admissible on delivery goroutines.
func (n *Node) onMessage() {
	trace.Record(1)
	n.c.Add(1)
}

// Exporters and registration are not.
func (n *Node) onBatch() {
	trace.Snapshot()        // want:bypassviolation
	trace.WriteDump(nil)    // want:bypassviolation
	n.r.CounterFunc("x")    // want:bypassviolation
	n.r.WriteText()         // want:bypassviolation
}
`},
	}, checksNamed("bypassviolation"))
}

// TestTriggeredFirePath pins the triggered-operation firing chain as
// checked territory: counter increment -> threshold scan -> fire runs on
// delivery-lane goroutines (internal/core/ct.go, drained from nicsim's
// on* handlers), so blocking anywhere on it is a bypassviolation. The
// fixture mirrors that chain's shape — an on* entry advancing a counter, a
// scan over armed thresholds, and a fire step — with both the trigger case
// and a documented-exception suppression.
func TestTriggeredFirePath(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/nicsim": {"trig.go": `package nicsim

type trig struct {
	threshold uint64
	fired     chan struct{}
}

type counter struct {
	count uint64
	armed []trig
}

type Lane struct{ wake chan struct{} }

// onCounted is the delivery-side entry: a counted completion increments
// the counter and scans for crossed thresholds, all on the lane.
func (l *Lane) onCounted(c *counter) {
	ctInc(c)
	l.scanArmed(c)
}

// Counter increments ride the per-message delivery path.
func ctInc(c *counter) { c.count++ }

// The threshold scan runs inside the delivery lanes.
func (l *Lane) scanArmed(c *counter) {
	for i := range c.armed {
		if c.armed[i].threshold <= c.count {
			l.fire(&c.armed[i])
		}
	}
}

// fire is the regression case: blocking in the fire step puts the host
// back in the collective's critical path. Allocating is not blocking: the
// make below is no finding.
//
// Firing happens on the lane, never on a host goroutine.
func (l *Lane) fire(op *trig) {
	evs := make([]uint64, 1)
	_ = evs
	op.fired <- struct{}{} // want:bypassviolation
}

// onCountedWakeup documents a legitimate blocking exception at its site.
func (l *Lane) onCountedWakeup() {
	//lint:ignore bypassviolation fixture: documented wakeup exception
	<-l.wake
}
`},
		"repro/internal/coll": {"chain.go": `package coll

// Same chain shape outside a delivery package: host-side collective code
// may block freely.
type group struct {
	count uint64
	fired chan struct{}
}

func (g *group) onAdvance() {
	g.count++
	g.fired <- struct{}{}
	_ = make([]uint64, 8)
}
`},
	}, checksNamed("bypassviolation"))
}

func TestCheckedErr(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/core": {"core.go": `package core

type State struct{}

func (s *State) Put() error  { return nil }
func (s *State) Count() int  { return 0 }
func Standalone() (int, error) { return 0, nil }
`},
		"repro/portals": {"ni.go": `package portals

type NI struct{}

func (ni *NI) MEUnlink(h int) error { return nil }
`},
		"repro/app": {"app.go": `package app

import (
	"repro/internal/core"
	"repro/portals"
)

// free drops the error that says the entry is still in use.
func free(ni *portals.NI) {
	ni.MEUnlink(1) // want:checkederr
}

func use(s *core.State) {
	s.Put() // want:checkederr
	_ = s.Put()
	if err := s.Put(); err != nil {
		_ = err
	}
	defer s.Put()
	s.Count()
	//lint:ignore checkederr suppression fixture
	core.Standalone()
}
`},
	}, checksNamed("checkederr"))
}

func TestBadSuppressDirective(t *testing.T) {
	prog, err := LoadSource("repro", map[string]map[string]string{
		"repro/bs": {"bs.go": "package bs\n\n//lint:ignore lockdiscipline\nfunc f() {}\n"},
	})
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	diags := prog.Run(nil)
	checkGolden(t, t.Name(), diags)
	if len(diags) != 1 || diags[0].Check != "badsuppress" || diags[0].Pos.Line != 3 {
		t.Fatalf("want one badsuppress finding at bs.go:3, got %v", diags)
	}
}

// TestRepoIsClean is the self-hosting gate: the analyzer must exit clean
// on the repository's own tree (real violations are fixed, intentional
// exceptions annotated).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, d := range prog.Run(nil) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestRepoLedger measures what docs/LINT.md's per-check ledger records:
// with -v it logs, per check, the raw findings on this tree (suppressions
// ignored) and the wall time of the check on its own. Every raw finding
// must be one that a //lint:ignore in the tree covers.
func TestRepoLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	start := time.Now()
	prog.engine()
	t.Logf("%-20s %5s %10v", "(facts engine)", "", time.Since(start).Round(100*time.Microsecond))
	sup, _ := prog.suppressions()
	total := 0
	for _, c := range AllChecks() {
		prog.lockRes = nil // time each check as if it ran alone
		start := time.Now()
		raw := c.Run(prog)
		t.Logf("%-20s %5d %10v", c.Name(), len(raw), time.Since(start).Round(100*time.Microsecond))
		total += len(raw)
		for _, d := range raw {
			if !sup.covers(d) {
				t.Errorf("unsuppressed finding: %s", d)
			}
		}
	}
	t.Logf("%-20s %5d", "total", total)
}

// TestLoadHonorsBuildConstraints: platform-gated alternates of one
// function (//go:build linux vs !linux, as in transport/udp's pconn
// files) must load as the go tool would build them — exactly one side —
// not collide as redeclarations.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tagged\n\ngo 1.22\n")
	write("impl_linux.go", "//go:build linux\n\npackage tagged\n\nfunc impl() int { return 1 }\n")
	write("impl_generic.go", "//go:build !linux\n\npackage tagged\n\nfunc impl() int { return 2 }\n")
	write("use.go", "package tagged\n\nvar _ = impl\n")
	prog, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if diags := prog.Run(nil); len(diags) != 0 {
		t.Fatalf("unexpected findings: %v", diags)
	}
}

func TestLockOrder(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/lo": {"lo.go": `package lo

import "sync"

//lint:lockrank A.mu < B.mu
//lint:lockrank B.mu < C.mu

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }
type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

func declared(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// transitive: A < B < C is declared, so C under A needs no direct edge.
func transitive(a *A, c *C) {
	a.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	a.mu.Unlock()
}

func reversed(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want:lockorder
	a.mu.Unlock()
	b.mu.Unlock()
}

func undeclared(a *A, d *D) {
	a.mu.Lock()
	d.mu.Lock() // want:lockorder
	d.mu.Unlock()
	a.mu.Unlock()
}

// sameRank: two locks of one class may never be held together.
func sameRank(a1, a2 *A) {
	a1.mu.Lock()
	a2.mu.Lock() // want:lockorder
	a2.mu.Unlock()
	a1.mu.Unlock()
}

func lockB(b *B) {
	b.mu.Lock()
	b.mu.Unlock()
}

// interprocedural: the callee's may-acquire summary creates the edge.
func interprocedural(d *D, b *B) {
	d.mu.Lock()
	lockB(b) // want:lockorder
	d.mu.Unlock()
}

func suppressedEdge(a *A, d *D) {
	a.mu.Lock()
	//lint:ignore lockorder fixture: intentional undeclared edge
	d.mu.Lock()
	d.mu.Unlock()
	a.mu.Unlock()
}
`},
	}, checksNamed("lockorder"))
}

// TestLockOrderReversedHierarchy pins the acceptance demo: with the
// docs/PERF.md §2 declarations in effect, taking a portal lock while
// holding resMu is reported as a reversal, naming the declared order.
func TestLockOrderReversedHierarchy(t *testing.T) {
	prog, err := LoadSource("repro", map[string]map[string]string{
		"repro/core": {"core.go": `package core

import "sync"

//lint:lockrank portal.mu < State.resMu

type portal struct{ mu sync.Mutex }

type State struct{ resMu sync.Mutex }

func bad(p *portal, s *State) {
	s.resMu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	s.resMu.Unlock()
}
`},
	})
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	diags := prog.Run(checksNamed("lockorder"))
	checkGolden(t, t.Name(), diags)
	if len(diags) != 1 {
		t.Fatalf("want exactly one lockorder finding, got %v", diags)
	}
	msg := diags[0].Message
	for _, frag := range []string{"lock order reversed", "portal.mu acquired", "while holding State.resMu", "portal.mu < State.resMu"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("finding %q does not mention %q", msg, frag)
		}
	}
}

func TestLockOrderMalformedDirective(t *testing.T) {
	prog, err := LoadSource("repro", map[string]map[string]string{
		"repro/lm": {"lm.go": `package lm

//lint:lockrank A.mu B.mu

//lint:lockrank A.mu < A.mu

func f() {}
`},
	})
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	diags := prog.Run(checksNamed("lockorder"))
	checkGolden(t, t.Name(), diags)
	if len(diags) != 2 {
		t.Fatalf("want two malformed-directive findings, got %v", diags)
	}
	for _, d := range diags {
		if d.Check != "lockorder" || !strings.Contains(d.Message, "malformed //lint:lockrank") {
			t.Errorf("unexpected finding %v", d)
		}
	}
	if diags[0].Pos.Line != 3 || diags[1].Pos.Line != 5 {
		t.Errorf("findings at lines %d and %d, want 3 and 5", diags[0].Pos.Line, diags[1].Pos.Line)
	}
}

// TestLockRankSole covers `//lint:lockrank C sole`: a class that may only
// ever be the sole lock held, so edges in either direction are findings
// and the class may not appear in `A < B` ordering declarations.
func TestLockRankSole(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/sl": {"sl.go": `package sl

import "sync"

//lint:lockrank ctr.mu sole
//lint:lockrank other.mu < third.mu

type ctr struct{ mu sync.Mutex }
type other struct{ mu sync.Mutex }
type third struct{ mu sync.Mutex }

// ok: alone is exactly what sole demands.
func ok(c *ctr) {
	c.mu.Lock()
	c.mu.Unlock()
}

func declaredPair(o *other, t3 *third) {
	o.mu.Lock()
	t3.mu.Lock()
	t3.mu.Unlock()
	o.mu.Unlock()
}

// fromSole: acquiring anything while holding the sole class.
func fromSole(c *ctr, o *other) {
	c.mu.Lock()
	o.mu.Lock() // want:lockorder
	o.mu.Unlock()
	c.mu.Unlock()
}

// intoSole: acquiring the sole class while holding anything.
func intoSole(o *other, c *ctr) {
	o.mu.Lock()
	c.mu.Lock() // want:lockorder
	c.mu.Unlock()
	o.mu.Unlock()
}

func suppressed(o *other, c *ctr) {
	o.mu.Lock()
	//lint:ignore lockorder fixture: intentional edge into a sole class
	c.mu.Lock()
	c.mu.Unlock()
	o.mu.Unlock()
}
`},
	}, checksNamed("lockorder"))
}

// TestLockRankSoleInOrdering: a sole class may not appear on either side
// of an `A < B` declaration.
func TestLockRankSoleInOrdering(t *testing.T) {
	prog, err := LoadSource("repro", map[string]map[string]string{
		"repro/sd": {"sd.go": `package sd

//lint:lockrank aa.mu sole

//lint:lockrank aa.mu < bb.mu

func f() {}
`},
	})
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	diags := prog.Run(checksNamed("lockorder"))
	checkGolden(t, t.Name(), diags)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "may not participate in ordering edges") {
		t.Fatalf("want one sole-in-ordering finding, got %v", diags)
	}
	if diags[0].Pos.Line != 5 {
		t.Errorf("finding at line %d, want 5 (the ordering declaration)", diags[0].Pos.Line)
	}
}

func TestLockOrderDeclarationCycle(t *testing.T) {
	prog, err := LoadSource("repro", map[string]map[string]string{
		"repro/lc": {"lc.go": `package lc

//lint:lockrank aa.mu < bb.mu

//lint:lockrank bb.mu < aa.mu

func f() {}
`},
	})
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	diags := prog.Run(checksNamed("lockorder"))
	checkGolden(t, t.Name(), diags)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "form a cycle") {
		t.Fatalf("want one cycle finding, got %v", diags)
	}
}

// TestBypassInterfaceCall covers the case the purely-static check missed:
// a delivery handler blocking only through an interface method.
func TestBypassInterfaceCall(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/nicsim": {"node.go": `package nicsim

type Sender interface{ Send(x int) }

type slowSender struct{ ch chan int }

func (s *slowSender) Send(x int) { s.ch <- x }

type Node struct{ s Sender }

func (n *Node) onMessage() {
	n.s.Send(1) // want:bypassviolation
}
`},
	}, checksNamed("bypassviolation"))
}

// TestBypassDeepChainMessage pins the acceptance demo: a channel send two
// calls below a delivery entry is reported with the call path.
func TestBypassDeepChainMessage(t *testing.T) {
	prog, err := LoadSource("repro", map[string]map[string]string{
		"repro/internal/nicsim": {"node.go": `package nicsim

type Node struct{ ch chan int }

func (n *Node) onDeliver() { n.stage1() }

func (n *Node) stage1() { n.stage2() }

func (n *Node) stage2() { n.ch <- 1 }
`},
	})
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	diags := prog.Run(checksNamed("bypassviolation"))
	checkGolden(t, t.Name(), diags)
	if len(diags) != 1 {
		t.Fatalf("want one bypassviolation finding, got %v", diags)
	}
	if diags[0].Pos.Line != 9 {
		t.Errorf("finding at line %d, want 9 (the channel send)", diags[0].Pos.Line)
	}
	msg := diags[0].Message
	for _, frag := range []string{"reached via", "Node.stage1"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("finding %q does not mention %q", msg, frag)
		}
	}
}

// TestSummarySCCPropagation: facts must converge through mutual recursion.
func TestSummarySCCPropagation(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/nicsim": {"node.go": `package nicsim

type Node struct{ ch chan int }

func (n *Node) onMsg() { n.ping(4) }

func (n *Node) ping(d int) {
	if d > 0 {
		n.pong(d - 1)
	}
}

func (n *Node) pong(d int) {
	n.ch <- d // want:bypassviolation
	n.ping(d)
}
`},
	}, checksNamed("bypassviolation"))
}

// TestMultiCheckSuppression: one //lint:ignore a,b directive quiets two
// different checks on the same line.
func TestMultiCheckSuppression(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/nicsim": {"node.go": `package nicsim

import "sync"

type Node struct {
	mu sync.Mutex
	ch chan int
}

func (n *Node) onEvent() {
	n.mu.Lock()
	n.ch <- 1 // want:bypassviolation,lockdiscipline
	//lint:ignore bypassviolation,lockdiscipline fixture: one directive, two checks
	n.ch <- 2
	n.mu.Unlock()
}
`},
	}, checksNamed("bypassviolation", "lockdiscipline"))
}

// TestSuppressParserEdgeCases: a trailing comma leaves an empty check name
// (badsuppress), and //lint:ignore must match as a whole token — a longer
// word sharing the prefix is not a directive.
func TestSuppressParserEdgeCases(t *testing.T) {
	prog, err := LoadSource("repro", map[string]map[string]string{
		"repro/sp": {"sp.go": `package sp

//lint:ignore lockdiscipline, trailing comma leaves an empty check name
func f() {}

//lint:ignorance is not a directive and must be left alone
func g() {}
`},
	})
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	diags := prog.Run(nil)
	checkGolden(t, t.Name(), diags)
	if len(diags) != 1 || diags[0].Check != "badsuppress" || diags[0].Pos.Line != 3 {
		t.Fatalf("want one badsuppress finding at sp.go:3, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "empty check name") {
		t.Errorf("finding %q does not mention the empty check name", diags[0].Message)
	}
}

func TestGuardedBy(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/gb": {"gb.go": `package gb

import (
	"sync"
	"sync/atomic"
)

type S struct {
	mu sync.Mutex
	n  int //lint:guardedby mu

	rw sync.RWMutex
	v  int //lint:guardedby rw

	c uint64 //lint:guardedby mu,atomic // want:guardedby
	t atomic.Int64
}

func (s *S) locked() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *S) unlocked() {
	s.n++ // want:guardedby
}

// helper documents its contract; the body checks clean under it.
//
//lint:requires mu
func (s *S) helper() { s.n = 2 }

func (s *S) callsHelperLocked() {
	s.mu.Lock()
	s.helper()
	s.mu.Unlock()
}

func (s *S) callsHelperUnlocked() {
	s.helper() // want:guardedby
}

func (s *S) readUnderRLock() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.v
}

func (s *S) writeUnderRLock() {
	s.rw.RLock()
	s.v = 2 // want:guardedby
	s.rw.RUnlock()
}

func (s *S) atomicOK() {
	atomic.AddUint64(&s.c, 1)
	s.t.Add(1)
}

func (s *S) atomicPlain() {
	s.c++ // want:guardedby
}

// NewS initializes fields on a fresh, unpublished object: exempt.
func NewS() *S {
	s := &S{}
	s.n = 1
	return s
}

func (s *S) hushed() {
	//lint:ignore guardedby fixture: externally synchronized
	s.n = 3
}

// Dotted cross-struct guard: the lock lives on another type.
type Owner struct{ mu sync.Mutex }

type Item struct {
	val int //lint:guardedby Owner.mu
}

func use(o *Owner, it *Item) {
	o.mu.Lock()
	it.val = 1
	o.mu.Unlock()
}

func misuse(it *Item) {
	it.val = 2 // want:guardedby
}
`},
	}, checksNamed("guardedby"))
}

// TestAtomicsOnly: a counter type's plain fields are guarded by
// sync/atomic with no annotation.
func TestAtomicsOnly(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/st": {"st.go": `package st

import "sync/atomic"

type GoodStats struct {
	n   atomic.Int64
	arr [4]atomic.Int64
	_   [64]byte // blank cache-line padding between groups is fine
	b   atomic.Bool
}

type BadCounters struct {
	n  int64
	m  int64
	ok atomic.Int64
}

func bump(c *BadCounters) {
	c.n++ // want:guardedby
	atomic.AddInt64(&c.m, 1)
	c.ok.Add(1)
}

func NewBadCounters() *BadCounters {
	c := &BadCounters{}
	c.n = 1
	return c
}

func hushed(c *BadCounters) int64 {
	//lint:ignore guardedby suppression fixture
	return c.n
}

// Snapshot-style plain structs are not counter types.
type Snapshot struct{ N int64 }

func copyOut(s *Snapshot) int64 { return s.N }
`},
	}, checksNamed("guardedby"))
}

// TestAtomicsOnlyStructOfAtomics: a struct-of-atomics field is admissible
// inside a counter type; a struct with one plain field is not.
func TestAtomicsOnlyStructOfAtomics(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/st2": {"st2.go": `package st2

import "sync/atomic"

// Hist is a struct of atomics, like metrics.Histogram: admissible
// inside a counter type. Mixed is not: the plain string disqualifies it.
type Hist struct {
	buckets [4]atomic.Int64
	sum     atomic.Int64
}

type Mixed struct {
	n atomic.Int64
	s string
}

type FlowStats struct {
	ok   atomic.Int64
	hist Hist
	bad  Mixed
}

func touch(s *FlowStats) {
	s.ok.Add(1)
	s.hist.sum.Add(2)
	_ = s.bad // want:guardedby
}
`},
	}, checksNamed("guardedby"))
}

// TestMixedAtomic: a plain word passed to sync/atomic anywhere is guarded
// by it everywhere.
func TestMixedAtomic(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/ma": {"ma.go": `package ma

import "sync/atomic"

type C struct {
	n uint32
	m uint64
	t atomic.Int64
}

func ready(c *C) bool {
	return atomic.LoadUint32(&c.n) != 0
}

func read(c *C) uint32 {
	return c.n // want:guardedby
}

// m is only ever plain, t is an atomic type: neither is guarded.
func plainOnly(c *C) int64 {
	c.m++
	c.t.Add(1)
	return c.t.Load()
}

func New() *C {
	c := &C{}
	c.n = 1
	return c
}

func hushed(c *C) uint32 {
	//lint:ignore guardedby fixture: init-time read, externally quiesced
	return c.n
}
`},
	}, checksNamed("guardedby"))
}

// TestGuardedByRequiresAlternation covers the "/" form: a callee declaring
// //lint:requires a/b holds ONE of a,b (unknown which), so it satisfies
// only guards that list both, and its call sites may hold either.
func TestGuardedByRequiresAlternation(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/alt": {"alt.go": `package alt

import "sync"

type Q struct{ mu sync.Mutex }

type P struct {
	mu   sync.Mutex
	both int //lint:guardedby mu,Q.mu
	only int //lint:guardedby mu
}

// touch runs under P.mu or Q.mu, whichever the caller aliases.
//
//lint:requires P.mu/Q.mu
func touch(p *P) {
	p.both = 1
	p.only = 2 // want:guardedby
}

func callerP(p *P) {
	p.mu.Lock()
	touch(p)
	p.mu.Unlock()
}

func callerQ(p *P, q *Q) {
	q.mu.Lock()
	touch(p)
	q.mu.Unlock()
}

func callerNone(p *P) {
	touch(p) // want:guardedby
}
`},
	}, checksNamed("guardedby"))
}

// TestGuardedByClosureInheritance: synchronous closures inherit the
// enclosing //lint:requires grants; go-launched literals do not.
func TestGuardedByClosure(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/cl": {"cl.go": `package cl

import "sync"

type L struct {
	mu sync.Mutex
	n  int //lint:guardedby mu
}

//lint:requires L.mu
func scan(l *L) {
	f := func() int { return l.n }
	_ = f()
}

//lint:requires L.mu
func escape(l *L) {
	go func() {
		l.n++ // want:guardedby
	}()
}
`},
	}, checksNamed("guardedby"))
}

// TestGuardedByConfined covers `//lint:guardedby confined`: the field is
// only touchable from the declaring type's own methods (single-goroutine
// confinement). Synchronous closures inherit the receiver; go-launched
// literals and other functions do not.
func TestGuardedByConfined(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/cf": {"cf.go": `package cf

type PE struct {
	n int         //lint:guardedby confined
	m map[int]int //lint:guardedby confined
}

func (p *PE) step() {
	p.n++
	p.m[p.n] = 1
	f := func() { p.n++ } // synchronous literal inherits the receiver
	f()
}

func (p *PE) escape() {
	go func() {
		p.n++ // want:guardedby
	}()
}

func outside(p *PE) {
	p.n++ // want:guardedby
}

type Other struct{}

func (o *Other) poke(p *PE) {
	p.n++ // want:guardedby
}

// NewPE initializes fields on a fresh, unpublished object: exempt.
func NewPE() *PE {
	p := &PE{m: map[int]int{}}
	p.n = 1
	return p
}

func hushed(p *PE) {
	//lint:ignore guardedby fixture: caller runs on the owning goroutine
	p.n = 3
}
`},
	}, checksNamed("guardedby"))
}

// TestStaleIgnore: a directive whose check fires nothing on its line is
// itself reported; used directives and unknown-name directives behave as
// documented; subset runs (of checks or of packages) don't judge.
func TestStaleIgnore(t *testing.T) {
	load := func() *Program {
		prog, err := LoadSource("repro", map[string]map[string]string{
			"repro/internal/nicsim": {"node.go": `package nicsim

type Node struct{ ch chan int }

func (n *Node) onMessage() {
	//lint:ignore bypassviolation fixture: this one is used
	<-n.ch
}

func (n *Node) quiet() int {
	//lint:ignore bypassviolation fixture: nothing fires here
	return 1
}

func (n *Node) typo() int {
	//lint:ignore bogomips fixture: no such check
	return 2
}
`},
			"repro/internal/other": {"other.go": `package other

func F() int { return 3 }
`},
		})
		if err != nil {
			t.Fatalf("LoadSource: %v", err)
		}
		return prog
	}

	// Full run: the unused directive and the unknown name are stale, the
	// used one is not.
	diags := load().Run(nil)
	checkGolden(t, t.Name(), diags)
	if len(diags) != 2 {
		t.Fatalf("want 2 staleignore findings, got %v", diags)
	}
	for _, d := range diags {
		if d.Check != "staleignore" {
			t.Errorf("unexpected check %q in %v", d.Check, d)
		}
	}
	if diags[0].Pos.Line != 11 || !strings.Contains(diags[0].Message, "matches no finding") {
		t.Errorf("want stale-unused at node.go:11, got %v", diags[0])
	}
	if diags[1].Pos.Line != 16 || !strings.Contains(diags[1].Message, "unknown check") {
		t.Errorf("want unknown-name at node.go:16, got %v", diags[1])
	}

	// Check-subset run: bypassviolation did not run, so its directives are
	// not judged; the unknown name is stale regardless.
	diags = load().Run(checksNamed("lockdiscipline"))
	checkGolden(t, t.Name()+"_checksubset", diags)
	if len(diags) != 1 || diags[0].Pos.Line != 16 {
		t.Fatalf("check-subset: want only the unknown-name finding, got %v", diags)
	}

	// Package-subset run: cross-package facts are incomplete, so stale
	// judgments are skipped entirely.
	prog := load()
	for _, pkg := range prog.Packages {
		if pkg.Path == "repro/internal/other" {
			prog.Packages = []*Package{pkg}
		}
	}
	if diags := prog.Run(nil); len(diags) != 0 {
		t.Fatalf("package-subset: want no findings, got %v", diags)
	}
}

// TestStaleIgnoreSelfSuppression: a stale finding cannot be silenced by
// naming staleignore in the directive — the name itself is unknown-to-own.
func TestStaleIgnoreSelfSuppression(t *testing.T) {
	prog, err := LoadSource("repro", map[string]map[string]string{
		"repro/ss": {"ss.go": `package ss

//lint:ignore staleignore trying to silence the janitor
func f() {}
`},
	})
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	diags := prog.Run(nil)
	checkGolden(t, t.Name(), diags)
	if len(diags) != 1 || diags[0].Check != "staleignore" {
		t.Fatalf("want one staleignore finding, got %v", diags)
	}
}

func TestSARIFMarshal(t *testing.T) {
	findings := []Finding{
		{File: "internal/core/state.go", Line: 12, Check: "guardedby", Message: "field accessed without mu held"},
		{File: "internal/mpi/win.go", Line: 40, Check: "checkederr", Message: "error result discarded"},
		{File: "x.go", Line: 1, Check: "novelcheck", Message: "from a future version"},
		{File: "internal/core/state.go", Line: 40, Check: "lockorder", Message: "undeclared lock edge"},
	}
	data, err := MarshalSARIF(findings)
	if err != nil {
		t.Fatalf("MarshalSARIF: %v", err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("bad version/schema: %q %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "portalsvet" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]int)
	for i, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = i
	}
	// The rules are the registered checks, badsuppress, and the check of a
	// finding no check owns — nothing else.
	want := []string{"badsuppress", "novelcheck"}
	for _, c := range AllChecks() {
		want = append(want, c.Name())
	}
	for _, id := range want {
		if _, ok := ruleIDs[id]; !ok {
			t.Errorf("rules missing %q", id)
		}
	}
	if len(ruleIDs) != len(want) {
		t.Errorf("rules %v, want exactly %v", ruleIDs, want)
	}
	if len(run.Results) != 4 {
		t.Fatalf("want 4 results, got %d", len(run.Results))
	}
	if r := run.Results[3]; r.Level != "error" || r.RuleID != "lockorder" {
		t.Errorf("lockorder finding rendered wrong: %+v", r)
	}
	if r := run.Results[0]; r.Level != "error" || r.RuleID != "guardedby" ||
		r.Locations[0].PhysicalLocation.ArtifactLocation.URI != "internal/core/state.go" ||
		r.Locations[0].PhysicalLocation.Region.StartLine != 12 {
		t.Errorf("finding rendered wrong: %+v", r)
	}
	for _, r := range run.Results {
		if run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("ruleIndex %d does not point at %q", r.RuleIndex, r.RuleID)
		}
	}
}
