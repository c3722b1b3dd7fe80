package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// guardedby verifies //lint:guardedby field annotations: every read or
// write of an annotated field must happen with one of the declared lock
// classes held (tracked by the lock pass, lockdiscipline.go, seeded
// interprocedurally through //lint:requires), or through sync/atomic for
// atomic-annotated fields. Accesses to freshly constructed,
// not-yet-published objects are exempt.
//
// seqlock verifies //lint:seqlock slot-struct annotations in the same
// pass: fields of a stamped ring slot may only be written between an odd
// stamp store (or a winning CompareAndSwap) and the matching even store,
// and only read while the stamp is known open or validated (the stamp
// protocol itself lives in seqlock.go).

// grants seeds a declaration's entry lock state from its //lint:requires
// annotation — callers promise the named classes are held; a class that
// names a //lint:seqlock stamp grants an open write window instead — and
// returns the receiver's type, whose methods may touch confined fields.
// The declaration's synchronous literals start from the same grants
// (funcBody.inherits).
func (a *lockPass) grants(fn *ast.FuncDecl) (lockSet, *types.TypeName) {
	entry := lockSet{}
	if fn == nil {
		return entry, nil
	}
	obj, ok := a.pkg.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return entry, nil
	}
	for _, class := range a.tbl.requires[obj] {
		if a.tbl.seqClasses[class] != nil {
			entry[seqOpenKey(class)] = heldLock{pos: fn.Pos(), class: class, granted: true}
		} else {
			// deferred: a caller-held lock needs no release here.
			entry[reqKey(class)] = heldLock{pos: fn.Pos(), class: class, deferred: true, granted: true}
		}
	}
	var recv *types.TypeName
	if n := recvNamed(obj); n != nil {
		recv = n.Origin().Obj()
	}
	return entry, recv
}

// Lock-set keys for granted entries. They live in the same lockSet as
// real mutexes, sharing clone/merge/branching.
func reqKey(class string) string      { return "req:" + class }
func seqOpenKey(class string) string  { return "seq:" + class }
func seqValidKey(class string) string { return "seqv:" + class }

// markWrite flags a direct field selector appearing in write position
// (assignment LHS, ++/--, or address-taken) before the flow scans it.
func (a *lockPass) markWrite(e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		a.write[sel] = true
	}
}

// heldAny reports whether any held lock in st satisfies the given class
// alternatives, and whether one of them is held for writing (not an
// RLock/validated stamp read).
func heldAny(st lockSet, classes []string) (held, writer bool) {
	for _, l := range st {
		if classCovered(l.class, classes) {
			held = true
			if !l.reader {
				writer = true
			}
		}
	}
	return held, writer
}

// classCovered reports whether a held lock class satisfies a guard's class
// alternatives. A held class from an alternation //lint:requires ("a/b" —
// the caller holds one of them, unknown which) satisfies the guard only if
// EVERY alternative is acceptable; a plain class is the singleton case.
func classCovered(held string, classes []string) bool {
	for _, part := range strings.Split(held, "/") {
		ok := false
		for _, c := range classes {
			if c == part {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// access checks one field selection against the guard tables under the
// current lock state. Called from the flow for every SelectorExpr.
func (a *lockPass) access(sel *ast.SelectorExpr, st lockSet) {
	obj, ok := a.pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return
	}
	fg := a.tbl.guardFor(a.pkg.Info, sel, obj)
	sd := a.tbl.protectedBy(a.pkg.Info, sel, obj)
	if fg == nil && sd == nil {
		return
	}
	if freshBase(a.pkg.Info, a.fresh, sel.X) {
		return // construction site: the object is not published yet
	}
	write := a.write[sel]
	if fg != nil {
		a.checkGuarded(sel, obj, fg, st, write)
	}
	if sd != nil {
		a.checkSeqProtected(sel, obj, sd, st, write)
	}
}

func (a *lockPass) checkGuarded(sel *ast.SelectorExpr, obj *types.Var, fg *fieldGuard, st lockSet, write bool) {
	if fg.confined {
		// Confined guard: the access is inside a method of the declaring
		// type (or a synchronous closure within one — go-launched literals
		// had recv stripped by runGuardFunc).
		if a.recv != nil && a.recv.Name() == fg.owner && a.recv.Pkg() == obj.Pkg() {
			return
		}
		if len(fg.classes) == 0 && !fg.atomic {
			a.reportf("guardedby", sel.Pos(),
				"field %s.%s (//lint:guardedby confined) accessed outside %s's single-goroutine methods",
				fg.owner, obj.Name(), fg.owner)
			return
		}
	}
	if fg.atomic {
		// Atomic guard: access through sync/atomic free functions, or any
		// operation on a field whose own type is a sync/atomic composite.
		if a.sanctioned[sel] || isAtomicType(obj.Type()) {
			return
		}
		if len(fg.classes) == 0 {
			a.reportf("guardedby", sel.Pos(),
				"field %s.%s (//lint:guardedby atomic) accessed without sync/atomic", fg.owner, obj.Name())
			return
		}
	}
	held, writer := heldAny(st, fg.classes)
	switch {
	case !held:
		a.reportf("guardedby", sel.Pos(),
			"field %s.%s (//lint:guardedby %s) accessed without %s held",
			fg.owner, obj.Name(), fg, guardList(fg.classes))
	case write && !writer:
		a.reportf("guardedby", sel.Pos(),
			"write to %s.%s while %s is only read-locked", fg.owner, obj.Name(), guardList(fg.classes))
	}
}

func (a *lockPass) checkSeqProtected(sel *ast.SelectorExpr, obj *types.Var, sd *seqlockDecl, st lockSet, write bool) {
	held, writer := heldAny(st, []string{sd.class})
	switch {
	case write && !writer:
		a.reportf("seqlock", sel.Pos(),
			"write to %s.%s outside an open stamp window (odd %s store or winning CompareAndSwap)",
			sd.owner, obj.Name(), sd.class)
	case !write && !held:
		a.reportf("seqlock", sel.Pos(),
			"read of %s.%s without %s validation (open window or stamp-validate loop)",
			sd.owner, obj.Name(), sd.class)
	}
}

func guardList(classes []string) string {
	switch len(classes) {
	case 0:
		return "its guard"
	case 1:
		return classes[0]
	}
	out := classes[0]
	for _, c := range classes[1:] {
		out += " or " + c
	}
	return out
}

// callHook runs after a call's callee is resolved: stamp stores update
// the seqlock window state, and //lint:requires contracts are checked at
// every call site.
func (a *lockPass) callHook(c *ast.CallExpr, fn *types.Func, st lockSet) lockSet {
	if fn != nil && pkgPathOf(fn) == "sync/atomic" {
		if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
			if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
				if sd := a.tbl.stampFor(a.pkg.Info, inner); sd != nil {
					return a.stampOp(c, sel.Sel.Name, sd, st)
				}
			}
		}
		return st
	}
	if fn == nil {
		return st
	}
	req := a.tbl.requires[fn]
	if len(req) == 0 {
		return st
	}
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && freshBase(a.pkg.Info, a.fresh, sel.X) {
		return st // constructor calling methods on a not-yet-published object
	}
	for _, class := range req {
		if held, _ := heldAny(st, strings.Split(class, "/")); !held {
			check := "guardedby"
			if a.tbl.seqClasses[class] != nil {
				check = "seqlock"
			}
			a.reportf(check, c.Pos(), "call to %s requires %s held (//lint:requires)", funcLabel(fn), class)
		}
	}
	return st
}

// freshBase reports whether the root of a selector/index chain is a local
// variable bound to a freshly constructed, not-yet-published object
// (collectFresh).
func freshBase(info *types.Info, fresh map[types.Object]bool, e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			return obj != nil && fresh[obj]
		default:
			return false
		}
	}
}

// collectFresh prepasses one function body for locals bound to freshly
// constructed objects (composite literals, new(T), make, zero-value var
// declarations): accesses through them predate publication, so guard and
// seqlock obligations do not apply. A later rebinding to anything
// non-fresh removes the exemption for the whole function (conservative:
// early accesses may be flagged and need a suppression).
func collectFresh(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	killed := make(map[types.Object]bool)
	var freshExpr func(e ast.Expr) bool
	freshExpr = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			return e.Op == token.AND && freshExpr(e.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if pkg.Info.Uses[id] == types.Universe.Lookup(id.Name) && (id.Name == "new" || id.Name == "make") {
					return true
				}
			}
			return false
		case *ast.Ident:
			obj := pkg.Info.Uses[e]
			return obj != nil && fresh[obj]
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				var obj types.Object
				if n.Tok == token.DEFINE {
					obj = pkg.Info.Defs[id]
				} else {
					obj = pkg.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) && freshExpr(n.Rhs[i]) {
					fresh[obj] = true
				} else if n.Tok != token.DEFINE || !(len(n.Rhs) == len(n.Lhs)) {
					killed[obj] = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				obj := pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				if len(n.Values) == 0 {
					if isStructish(obj.Type()) {
						fresh[obj] = true // var x T: zero value, unpublished
					}
				} else if i < len(n.Values) && freshExpr(n.Values[i]) {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	for o := range killed {
		delete(fresh, o)
	}
	return fresh
}

func isStructish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		return true
	case *types.Array:
		_, ok := u.Elem().Underlying().(*types.Struct)
		return ok
	}
	return false
}
