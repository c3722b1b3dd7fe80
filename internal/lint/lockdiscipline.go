package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The lock pass: one walk of every function body (and function literal)
// of the analyzed packages with the structured-flow walker (flow.go) over
// the set of locks held, feeding three sinks.
//
// lockdiscipline enforces mutex discipline:
//
//   - no blocking operation — channel send/receive, select without
//     default, time.Sleep, network I/O, or a call into a module function
//     that may block transitively — while a sync.Mutex/RWMutex is held;
//   - every Lock()/RLock() is released on all paths out of the function
//     (defer or explicit Unlock), and no mutex is re-locked while held.
//
// (*sync.Cond).Wait directly under its mutex is exempt: that is the
// condition-variable contract.
//
// lockorder gets an edge for every acquisition made while another
// classified lock is held, directly or through a callee's locks-acquired
// summary (validated against the declared hierarchy in lockorder.go).
//
// guardedby gets every field selection checked against the guard tables
// (guards.go) under the current lock set (guardedby.go).

// heldLock is the state of one mutex expression within a function.
type heldLock struct {
	pos      token.Pos // where it was locked
	reader   bool      // RLock rather than Lock
	deferred bool      // a defer Unlock covers release (still held for blocking checks)
	class    string    // lock class (lockClassOf) for lock-order edges
	// granted marks an entry that stands for a promise rather than a Lock
	// call in this body — a //lint:requires class the caller holds.
	// guardedby consults it; lockdiscipline and lockorder judge this
	// body's own acquisitions and pass over it (the caller's site is where
	// holding it is judged).
	granted bool
}

// lockSet maps the printed mutex expression ("s.mu") to its state.
type lockSet map[string]heldLock

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// merge unions two branch outcomes: a lock held on either incoming path
// is treated as held (conservative for blocking and release checks).
func (s lockSet) merge(b lockSet) lockSet {
	out := s.clone()
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// lockResult is the outcome of the lock pass, cached on the Program so
// lockdiscipline, lockorder and guardedby pay for one traversal between
// them.
type lockResult struct {
	diags []Diagnostic // lockdiscipline and guardedby findings
	edges orderSink    // lockorder's acquisition edges
}

// lockAnalysis runs the lock pass once.
func (p *Program) lockAnalysis() *lockResult {
	if p.lockRes != nil {
		return p.lockRes
	}
	tbl := buildGuardTables(p)
	res := &lockResult{diags: tbl.diags}
	p.forEachBody(func(b funcBody) {
		a := &lockPass{
			prog:       p,
			pkg:        b.pkg,
			tbl:        tbl,
			res:        res,
			fresh:      collectFresh(b.pkg, b.body),
			write:      make(map[ast.Expr]bool),
			sanctioned: make(map[ast.Expr]bool),
		}
		entry := lockSet{}
		if b.inherits {
			entry, a.recv = a.grants(b.decl)
		}
		runFlow(a, b.body, entry)
	})
	p.lockRes = res
	return res
}

// lockPass is the lock pass over one function body: the transfer
// functions the walker calls, and the per-body state of the guard checks.
type lockPass struct {
	prog *Program
	pkg  *Package
	tbl  *guardTables
	res  *lockResult
	recv *types.TypeName // receiver type of the enclosing method, for "confined"

	fresh      map[types.Object]bool // locals bound to unpublished objects
	write      map[ast.Expr]bool     // selector nodes in write position
	sanctioned map[ast.Expr]bool     // selector nodes accessed via sync/atomic
}

func (a *lockPass) reportf(check string, pos token.Pos, format string, args ...any) {
	a.res.diags = append(a.res.diags, a.prog.diagf(check, pos, format, args...))
}

func (a *lockPass) line(pos token.Pos) int { return a.prog.Fset.Position(pos).Line }

// exit fires at an exit point for every lock still held without a
// covering defer.
func (a *lockPass) exit(at token.Pos, st lockSet) {
	for name, l := range st {
		if !l.deferred && !l.granted {
			a.reportf("lockdiscipline", at, "%s may still be held here (locked at line %d; missing Unlock on this path)",
				name, a.line(l.pos))
		}
	}
}

func (a *lockPass) simple(s ast.Stmt, st lockSet) (lockSet, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		st = a.expr(s.X, st)

	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			a.markWrite(e)
		}
		st = a.eval(st, s.Rhs...)
		st = a.eval(st, s.Lhs...)

	case *ast.IncDecStmt:
		a.markWrite(s.X)
		st = a.expr(s.X, st)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					st = a.eval(st, vs.Values...)
				}
			}
		}

	case *ast.SendStmt:
		st = a.eval(st, s.Chan, s.Value)
		a.blockingOp(s.Pos(), "channel send", st)

	case *ast.DeferStmt:
		// defer x.Unlock() covers release on every path; the lock stays
		// held for blocking purposes.
		if _, mu, op := lockTarget(a.pkg.Info, s.Call); mu != "" && (op == "Unlock" || op == "RUnlock") {
			st = st.clone()
			if l, ok := st[mu]; ok {
				l.deferred = true
				st[mu] = l
			} else {
				// defer before Lock (or helper releasing a caller-held
				// lock): record it so a later Lock is considered covered.
				st[mu] = heldLock{pos: s.Pos(), reader: op == "RUnlock", deferred: true}
			}
			return st, false
		}
		// Other defers: evaluate arguments now, body runs at return.
		st = a.eval(st, s.Call.Args...)

	case *ast.GoStmt:
		// The spawned function runs elsewhere; launching never blocks.

	case *ast.ReturnStmt:
		st = a.eval(st, s.Results...)
	}
	return st, false
}

func (a *lockPass) eval(st lockSet, exprs ...ast.Expr) lockSet {
	for _, e := range exprs {
		st = a.expr(e, st)
	}
	return st
}

func (a *lockPass) waits(s ast.Stmt, st lockSet) {
	switch s := s.(type) {
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return // a default: the select does not park
			}
		}
		a.blockingOp(s.Pos(), "select without default", st)
	case *ast.RangeStmt:
		if t, ok := a.pkg.Info.Types[s.X]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				a.blockingOp(s.Pos(), "range over channel", st)
			}
		}
	}
}

// comm: the chosen comm op has already completed (or, with a default,
// did not block), and its blocking nature is attributed to the select
// itself; it is scanned for lock operations only.
func (a *lockPass) comm(s ast.Stmt, st lockSet) lockSet {
	var exprs []ast.Expr
	switch s := s.(type) {
	case *ast.AssignStmt:
		exprs = s.Rhs
	case *ast.ExprStmt:
		exprs = []ast.Expr{s.X}
	case *ast.SendStmt:
		exprs = []ast.Expr{s.Chan, s.Value}
	}
	for _, e := range exprs {
		st = a.scanExpr(e, st, false)
	}
	return st
}

// expr scans an expression for lock operations, blocking operations and
// guarded field selections, in syntactic order. Function literals are
// skipped (analyzed on their own); their capture of a held lock is out of
// scope.
func (a *lockPass) expr(e ast.Expr, st lockSet) lockSet {
	return a.scanExpr(e, st, true)
}

func (a *lockPass) scanExpr(e ast.Expr, st lockSet, reportBlocking bool) lockSet {
	if e == nil {
		return st
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && reportBlocking {
				a.blockingOp(n.Pos(), "channel receive", st)
			}
			if n.Op == token.AND {
				// Address-taken fields may be mutated through the pointer.
				a.markWrite(n.X)
			}
		case *ast.SelectorExpr:
			a.access(n, st)
		case *ast.CallExpr:
			st = a.call(n, st, reportBlocking)
			return false // call handles its own descent
		}
		return true
	})
	return st
}

// call processes one call expression: receiver and argument scan,
// lock-state updates, lock-order edges, and blocking classification.
func (a *lockPass) call(c *ast.CallExpr, st lockSet, reportBlocking bool) lockSet {
	// Sanction &field arguments to sync/atomic before the argument scan
	// sees them as plain accesses.
	for _, sel := range atomicFieldArgs(a.pkg.Info, c) {
		a.sanctioned[sel] = true
	}
	// s.field.Method() reads s.field; f(x).Method() calls f.
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
		st = a.scanExpr(sel.X, st, reportBlocking)
	}
	for _, arg := range c.Args {
		st = a.scanExpr(arg, st, reportBlocking)
	}
	if x, mu, op := lockTarget(a.pkg.Info, c); mu != "" {
		return a.applyLockOp(c, x, mu, op, st)
	}
	fn := calleeOf(a.pkg.Info, c)
	st = a.callHook(c, fn, st)
	if fn == nil {
		return st
	}
	if op, ok := classifyBlockingCall(fn); ok {
		if reportBlocking && !op.condWait {
			// Cond.Wait directly under its lock is the cv contract.
			a.blockingOp(c.Pos(), op.desc, st)
		}
		return st
	}
	if !st.holdsOwn() {
		return st
	}
	e := a.prog.engine()
	// A call made while locks are held acquires, at some depth, every lock
	// class in the callee's summary — each pair is an acquisition edge.
	// Static calls only; lock classes do not cross interface boundaries
	// (see summary.go).
	if f := e.facts[fn]; f != nil {
		for _, held := range st {
			if held.class == "" || held.granted {
				continue
			}
			for class := range f.lockSet {
				a.res.edges.add(lockEdge{from: held.class, to: class, pos: c.Pos(), via: funcLabel(fn)})
			}
		}
	}
	// A call into a module function that may block transitively is as bad
	// as blocking here; the facts engine resolves interface calls against
	// the module's method sets.
	if reportBlocking {
		if isInterfaceMethod(fn) {
			if impl := e.firstImpl(fn); impl != nil {
				a.blockingOp(c.Pos(), "dynamic call "+funcLabel(fn)+" (may block: implementation "+
					funcLabel(impl)+": "+e.rep(impl)+")", st)
			}
		} else if f := e.facts[fn]; f != nil && f.mayBlock {
			a.blockingOp(c.Pos(), "call to "+funcLabel(fn)+" (may block: "+e.rep(fn)+")", st)
		}
	}
	return st
}

// holdsOwn reports whether the set holds a lock this body took itself.
func (s lockSet) holdsOwn() bool {
	for _, l := range s {
		if !l.granted {
			return true
		}
	}
	return false
}

// blockingOp reports a blocking operation for every lock currently held.
func (a *lockPass) blockingOp(pos token.Pos, desc string, st lockSet) {
	for name, l := range st {
		if !l.granted {
			a.reportf("lockdiscipline", pos, "%s while holding %s (locked at line %d)", desc, name, a.line(l.pos))
		}
	}
}

// applyLockOp updates the lock state for x.Lock/Unlock/RLock/RUnlock. An
// acquisition while other classified locks are held records one
// lock-order edge per held lock.
func (a *lockPass) applyLockOp(c *ast.CallExpr, x ast.Expr, mu, op string, st lockSet) lockSet {
	st = st.clone()
	switch op {
	case "Lock", "RLock":
		class := lockClassOf(a.pkg.Info, x)
		for name, held := range st {
			if class == "" || name == mu || held.class == "" || held.granted {
				continue // the same-expression case is the deadlock report below
			}
			a.res.edges.add(lockEdge{from: held.class, to: class, pos: c.Pos()})
		}
		if l, held := st[mu]; op == "Lock" && held && !l.reader && !l.deferred {
			a.reportf("lockdiscipline", c.Pos(), "%s.Lock() while already held (locked at line %d): deadlock",
				mu, a.line(l.pos))
		}
		// deferred: a defer Unlock recorded before the Lock covers it.
		st[mu] = heldLock{pos: c.Pos(), reader: op == "RLock", deferred: st[mu].deferred, class: class}
	case "Unlock", "RUnlock":
		delete(st, mu)
	case "TryLock", "TryRLock":
		// Result-dependent; too imprecise to track.
	}
	return st
}
