package lint

import "testing"

// ownChecks is the v4 ownership suite plus staleignore (so suppress
// fixtures prove their directives are live, not stale).
func ownChecks() []Check {
	return checksNamed("ownleak", "ownuseafter", "owndouble", "ownescape")
}

// bpFixture is a pooled-buffer resource family mirroring internal/bufpool:
// a package-level acquire returning a pointer to a named type, released
// through a method on the resource itself, and shared by taking one more
// reference, which is released like the first.
const bpFixture = `// Package bp is a pooled-buffer fixture.
//
//lint:resource bp.Get -> Buf.Release
package bp

type Buf struct{ b []byte }

func Get(n int) *Buf { return &Buf{b: make([]byte, n)} }

func (b *Buf) Release() {}

//lint:returns-owned
func (b *Buf) Retain() *Buf { return b }

func (b *Buf) Len() int { return len(b.b) }
`

func TestOwnershipLeak(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/bp": {"bp.go": bpFixture},
		"repro/use": {"use.go": `package use

import "repro/internal/bp"

func leakEarlyReturn(fail bool) {
	b := bp.Get(8)
	if fail {
		return // want:ownleak
	}
	b.Release()
}

func released() {
	b := bp.Get(8)
	b.Release()
}

func viaDefer() {
	b := bp.Get(8)
	defer b.Release()
	_ = b.Len()
}

func discarded() {
	bp.Get(8) // want:ownleak
	_ = bp.Get(8) // want:ownleak
}

func overwritten() {
	b := bp.Get(8)
	b = bp.Get(8) // want:ownleak
	b.Release()
}

func partialPaths(x bool) {
	b := bp.Get(8)
	if x {
		b.Release()
	}
} // want:ownleak

func nilGuard(b2 *bp.Buf) {
	b := bp.Get(8)
	if b == nil {
		return
	}
	b.Release()
}

func leakSuppressed(fail bool) {
	b := bp.Get(8)
	if fail {
		//lint:ignore ownleak fixture: intentional leak on the failure path
		return
	}
	b.Release()
}
`}}, ownChecks())
}

// TestOwnershipRetainedReference: a reference taken with Retain is an
// obligation of its own — released or handed on along every path, whatever
// becomes of the reference it was taken from — in the shapes the fabric and
// the reliability layer use: retained from a borrowed parameter into a queue
// slot, retained per fragment into a consuming call.
func TestOwnershipRetainedReference(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/bp": {"bp.go": bpFixture},
		"repro/use": {"use.go": `package use

import "repro/internal/bp"

func leakedReference(b *bp.Buf, fail bool) {
	ref := b.Retain()
	if fail {
		return // want:ownleak
	}
	ref.Release()
}

func discardedReference(b *bp.Buf) {
	b.Retain() // want:ownleak
}

func releasedOnEveryPath(b *bp.Buf, early bool) int {
	ref := b.Retain()
	if early {
		ref.Release()
		return 0
	}
	n := ref.Len()
	ref.Release()
	return n
}

func outlivesTheFirst() int {
	b := bp.Get(8)
	ref := b.Retain()
	b.Release()
	n := ref.Len() // the second reference keeps the bytes
	ref.Release()
	return n
}

func firstStillCounts() {
	b := bp.Get(8)
	ref := b.Retain()
	ref.Release()
} // want:ownleak

type slot struct {
	payload []byte
	owner   *bp.Buf
}

// The fabric's shape: the caller's reference is only borrowed, the queue
// slot gets one of its own.
func enqueue(q []slot, payload []byte, owner *bp.Buf) []slot {
	q = append(q, slot{})
	p := &q[len(q)-1]
	p.payload, p.owner = payload, owner.Retain()
	return q
}

//lint:consumes owner
func record(owner *bp.Buf) bool {
	owner.Release()
	return true
}

// The sender's shape: one reference per fragment, and the one that came in
// released when the last fragment has its own.
//
//lint:consumes buf
func fragment(buf *bp.Buf, n int) {
	for i := 0; i < n; i++ {
		if !record(buf.Retain()) {
			break
		}
	}
	buf.Release()
}

func doubleThroughOneName(b *bp.Buf) {
	ref := b.Retain()
	ref.Release()
	ref.Release() // want:owndouble
}
`}}, ownChecks())
}

func TestOwnershipUseAfterAndDouble(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/bp": {"bp.go": bpFixture},
		"repro/use": {"use.go": `package use

import "repro/internal/bp"

func useAfterRelease() {
	b := bp.Get(8)
	b.Release()
	_ = b.Len() // want:ownuseafter
}

func useAfterTransfer(ch chan *bp.Buf) {
	b := bp.Get(8)
	ch <- b
	_ = b.Len() // want:ownuseafter
}

func doubleRelease() {
	b := bp.Get(8)
	b.Release()
	b.Release() // want:owndouble
}

func doubleOnTwoPaths(x bool) {
	b := bp.Get(8)
	if x {
		b.Release()
	} else {
		b.Release()
	}
	b.Release() // want:owndouble
}

func transferUnderDefer(ch chan *bp.Buf) {
	b := bp.Get(8)
	defer b.Release()
	ch <- b // want:owndouble
}

func useAfterSuppressed() {
	b := bp.Get(8)
	b.Release()
	//lint:ignore ownuseafter fixture: reading the stale length is harmless
	_ = b.Len()
}

func doubleSuppressed() {
	b := bp.Get(8)
	b.Release()
	//lint:ignore owndouble fixture: release is idempotent for this class
	b.Release()
}
`}}, ownChecks())
}

func TestOwnershipBorrowedEscape(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/bp": {"bp.go": bpFixture},
		"repro/use": {"use.go": `package use

import "repro/internal/bp"

type sink struct{ b *bp.Buf }

// Reading a borrowed buffer is fine.
func borrowPeek(b *bp.Buf) int { return b.Len() }

func borrowStore(s *sink, b *bp.Buf) {
	s.b = b // want:ownescape
}

func borrowRelease(b *bp.Buf) {
	b.Release() // want:ownescape
}

// The fix: //lint:consumes makes the handoff part of the contract, and
// the obligation is then enforced inside.
//
//lint:consumes b
func takeStore(s *sink, b *bp.Buf) {
	s.b = b
}

//lint:consumes b
func takeLeak(b *bp.Buf, drop bool) {
	if drop {
		return // want:ownleak
	}
	b.Release()
}

func escapeSuppressed(s *sink, b *bp.Buf) {
	//lint:ignore ownescape fixture: the caller clears the sink before returning
	s.b = b
}
`}}, ownChecks())
}

// TestOwnershipTransferIdioms: every sanctioned way of settling an
// obligation without a release — stores, sends, closures, returns,
// consuming callees — stays silent.
func TestOwnershipTransferIdioms(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/bp": {"bp.go": bpFixture},
		"repro/use": {"use.go": `package use

import "repro/internal/bp"

type box struct {
	b *bp.Buf
	n int
}

var global *bp.Buf

func transferComposite(ch chan box) {
	b := bp.Get(8)
	// The same statement both reads and hands off b: transfers apply at
	// the statement boundary.
	ch <- box{b: b, n: b.Len()}
}

func transferAppend(q []box) []box {
	b := bp.Get(8)
	return append(q, box{b: b})
}

func transferIndex(dst []*bp.Buf) {
	b := bp.Get(8)
	dst[0] = b
}

func transferGlobal() {
	b := bp.Get(8)
	global = b
}

func transferReturn() *bp.Buf {
	b := bp.Get(8)
	return b
}

func transferGoroutine() {
	b := bp.Get(8)
	go func() {
		b.Release()
	}()
}

//lint:consumes b
func consume(b *bp.Buf) { b.Release() }

func transferConsumes() {
	b := bp.Get(8)
	consume(b)
}

//lint:returns-owned
func fresh() *bp.Buf { return bp.Get(8) }

func fromReturnsOwned(drop bool) {
	b := fresh()
	if drop {
		return // want:ownleak
	}
	b.Release()
}

// Handler hands the buffer to whoever is registered.
//
//lint:consumes b
type Handler func(b *bp.Buf)

func invoke(h Handler) {
	b := bp.Get(8)
	h(b)
}
`}}, ownChecks())
}

// TestOwnershipInterfaceTransfer: a //lint:consumes on an interface
// method covers calls through the interface, and every module
// implementation inherits the obligation.
func TestOwnershipInterfaceTransfer(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/bp": {"bp.go": bpFixture},
		"repro/use": {"use.go": `package use

import "repro/internal/bp"

type Sender interface {
	//lint:consumes b
	Send(b *bp.Buf)
}

type keepSender struct{ last *bp.Buf }

// Inherits //lint:consumes from Sender: the store settles the obligation.
func (s *keepSender) Send(b *bp.Buf) { s.last = b }

type dropSender struct{}

// Inherits the obligation too — and leaks it.
func (dropSender) Send(b *bp.Buf) {
} // want:ownleak

func viaInterface(s Sender) {
	b := bp.Get(8)
	s.Send(b)
}
`}}, ownChecks())
}

// TestOwnershipFrontier: handing an owned or borrowed resource to an
// unannotated callee that provably disposes of it is reported with the
// call path, through static calls and interface dispatch.
func TestOwnershipFrontier(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/bp": {"bp.go": bpFixture},
		"repro/use": {"use.go": `package use

import "repro/internal/bp"

func relHelper(b *bp.Buf) {
	b.Release() // want:ownescape
}

func relDeep(b *bp.Buf) {
	relHelper(b) // want:ownescape
}

func callDirect() {
	b := bp.Get(8)
	relHelper(b) // want:ownescape
}

func callDeep() {
	b := bp.Get(8)
	relDeep(b) // want:ownescape
}

// peek only reads: passing a resource to it is not a handoff.
func peek(b *bp.Buf) int { return b.Len() }

func callPeek() {
	b := bp.Get(8)
	_ = peek(b)
	b.Release()
}

type Disposer interface {
	Handle(b *bp.Buf)
}

type relImpl struct{}

func (relImpl) Handle(b *bp.Buf) {
	b.Release() // want:ownescape
}

func viaDynamic(d Disposer) {
	b := bp.Get(8)
	d.Handle(b) // want:ownescape
}
`}}, ownChecks())
}

// TestOwnershipArgFormFamily: a pin-style family whose handle is an
// opaque token released by argument (Guards.Enter -> Guards.Exit),
// tracked purely through bindings.
func TestOwnershipArgFormFamily(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/pg": {"pg.go": `// Package pg is a pin-guard fixture (argument-form release).
//
//lint:resource Guards.Enter -> Guards.Exit
package pg

type Guards struct{ n int }

func (g *Guards) Enter(hint uint64) int { g.n++; return int(hint) }

func (g *Guards) Exit(token int) { g.n-- }
`},
		"repro/use": {"use.go": `package use

import "repro/internal/pg"

func pinLeak(g *pg.Guards, fail bool) {
	pin := g.Enter(1)
	if fail {
		return // want:ownleak
	}
	g.Exit(pin)
}

func pinDefer(g *pg.Guards) int {
	pin := g.Enter(1)
	defer g.Exit(pin)
	return pin
}

func pinDouble(g *pg.Guards) {
	pin := g.Enter(1)
	g.Exit(pin)
	g.Exit(pin) // want:owndouble
}

func pinAlias(g *pg.Guards) {
	pin := g.Enter(1)
	tok := pin
	g.Exit(tok)
}
`}}, ownChecks())
}

// TestOwnershipDirectiveErrors: malformed or unresolvable ownership
// directives are findings, not silent no-ops.
func TestOwnershipDirectiveErrors(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/bad": {"bad.go": `// Package bad has broken ownership annotations.
//
//lint:resource Missing.Get -> Missing.Put // want:ownleak
package bad

type T struct{}

func (t *T) Close() {}

//lint:consumes nosuch // want:ownleak
func f(t *T) {}
`}}, ownChecks())
}
