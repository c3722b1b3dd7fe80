package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// Seqlock stamp protocol (eventq, obs/trace): a slot's stamp is even when
// the slot is stable and odd while a writer owns it. The lock pass
// models the protocol with two granted lock-set entries (heldLock.granted)
// per //lint:seqlock class:
//
//	seq:<class>  — an open write window: an odd stamp Store (or a stamp
//	               CompareAndSwap known to have succeeded) was executed on
//	               this path. Writes and reads of protected fields are
//	               legal. An even or unknown-parity Store closes it.
//	seqv:<class> — a validated read: the path is dominated by a stamp
//	               comparison against an even value (the exit of a
//	               validate-reread loop, or the true branch of an equality
//	               test). Reads are legal, writes are not (reader=true).
//
// Both states come from branch conditions via condGrants, which the walker
// applies to if/for branches (refine), mirroring how real seqlock code is
// written:
//
//	if !s.stamp.CompareAndSwap(st, st+1) { continue }  // open on fallthrough
//	for s.stamp.Load() != done { ... }                 // validated at exit

// stampOp updates the seqlock window state for a method call on a stamp
// field (s.stamp.Store(v) and friends). Stores of odd parity open the
// write window; even or unknown parity closes it (the standard publish
// step stores the even done-stamp).
func (a *lockPass) stampOp(c *ast.CallExpr, method string, sd *seqlockDecl, st lockSet) lockSet {
	switch method {
	case "Store":
		if len(c.Args) != 1 {
			return st
		}
		st = st.clone()
		if a.parityOf(c.Args[0]) == 1 {
			st[seqOpenKey(sd.class)] = heldLock{pos: c.Pos(), class: sd.class, granted: true}
		} else {
			delete(st, seqOpenKey(sd.class))
			delete(st, seqValidKey(sd.class))
		}
		return st
	case "Add", "Swap":
		// Parity after an Add/Swap is untracked; conservatively close.
		st = st.clone()
		delete(st, seqOpenKey(sd.class))
		delete(st, seqValidKey(sd.class))
		return st
	}
	// Load/CompareAndSwap in statement position carry no state on their
	// own; their effect comes from the conditions they appear in.
	return st
}

// seqGrant is one pseudo-lock granted by a branch condition.
type seqGrant struct {
	key string
	l   heldLock
}

// refine applies the seqlock facts a condition proves (a winning stamp
// CompareAndSwap, a validated stamp comparison) to the branch states
// derived from it. For a loop the body sees the true outcome and the
// fallthrough exit the false one — the stamp-validate-reread pattern.
func (a *lockPass) refine(cond ast.Expr, ifTrue, ifFalse lockSet) {
	tg, fg := a.condGrants(cond)
	for _, gr := range tg {
		ifTrue[gr.key] = gr.l
	}
	for _, gr := range fg {
		ifFalse[gr.key] = gr.l
	}
}

// condGrants computes which seqlock states hold on the true and false
// outcomes of a boolean condition:
//
//   - s.stamp.CompareAndSwap(old, new): the true branch owns the window.
//   - s.stamp.Load() == <even expr>: the true branch is validated;
//     != swaps the branches. Comparisons against odd or unknown-parity
//     values prove nothing.
//   - !cond swaps, && propagates true-grants, || propagates false-grants.
func (a *lockPass) condGrants(cond ast.Expr) (tg, fg []seqGrant) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			fg, tg = a.condGrants(e.X)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			// Both conjuncts are true on the true branch; the false branch
			// pinpoints neither.
			xt, _ := a.condGrants(e.X)
			yt, _ := a.condGrants(e.Y)
			tg = append(xt, yt...)
		case token.LOR:
			_, xf := a.condGrants(e.X)
			_, yf := a.condGrants(e.Y)
			fg = append(xf, yf...)
		case token.EQL, token.NEQ:
			sd, other := a.stampCompare(e)
			if sd == nil || a.parityOf(other) != 0 {
				return nil, nil
			}
			grant := []seqGrant{{key: seqValidKey(sd.class), l: heldLock{pos: e.Pos(), reader: true, class: sd.class, granted: true}}}
			if e.Op == token.EQL {
				tg = grant
			} else {
				fg = grant
			}
		}
	case *ast.CallExpr:
		if sd, method := a.stampMethod(e); sd != nil && method == "CompareAndSwap" {
			tg = []seqGrant{{key: seqOpenKey(sd.class), l: heldLock{pos: e.Pos(), class: sd.class, granted: true}}}
		}
	}
	return tg, fg
}

// stampMethod resolves a call to a sync/atomic method on a //lint:seqlock
// stamp field.
func (a *lockPass) stampMethod(c *ast.CallExpr) (*seqlockDecl, string) {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn := calleeOf(a.pkg.Info, c)
	if fn == nil || pkgPathOf(fn) != "sync/atomic" {
		return nil, ""
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	return a.tbl.stampFor(a.pkg.Info, inner), sel.Sel.Name
}

// stampCompare matches one side of an ==/!= against a stamp Load (or a
// local snapshot of one is out of scope — the comparison must read the
// stamp directly) and returns the other side.
func (a *lockPass) stampCompare(e *ast.BinaryExpr) (*seqlockDecl, ast.Expr) {
	for _, side := range [2][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
		if c, ok := ast.Unparen(side[0]).(*ast.CallExpr); ok {
			if sd, method := a.stampMethod(c); sd != nil && method == "Load" {
				return sd, side[1]
			}
		}
	}
	return nil, nil
}

// parityOf statically evaluates an integer expression's parity: 0 even,
// 1 odd, -1 unknown. Constants fold through go/types; +,-,^,*,&,|,<<
// propagate parity algebraically; a call to a single-return module
// function evaluates through its body (writeStamp(p)=2p+1 is odd,
// doneStamp(p)=2p+2 is even).
func (a *lockPass) parityOf(e ast.Expr) int {
	return parityIn(a.prog, a.pkg, e, 0)
}

func parityIn(p *Program, pkg *Package, e ast.Expr, depth int) int {
	e = ast.Unparen(e)
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if v, exact := constant.Int64Val(tv.Value); exact {
			return int(v & 1)
		}
		return -1
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		l := parityIn(p, pkg, e.X, depth)
		r := parityIn(p, pkg, e.Y, depth)
		switch e.Op {
		case token.ADD, token.SUB, token.XOR:
			if l >= 0 && r >= 0 {
				return l ^ r
			}
		case token.MUL, token.AND:
			if l == 0 || r == 0 {
				return 0
			}
			if l == 1 && r == 1 {
				return 1
			}
		case token.OR:
			if l == 1 || r == 1 {
				return 1
			}
			if l == 0 && r == 0 {
				return 0
			}
		case token.SHL:
			if r == -1 {
				return -1
			}
			// x << k: even for any k >= 1; equal to x for k == 0. The
			// shift amount's own value (not parity) decides, so only fold
			// the constant case.
			if tv, ok := pkg.Info.Types[ast.Unparen(e.Y)]; ok && tv.Value != nil {
				if k, exact := constant.Int64Val(tv.Value); exact {
					if k >= 1 {
						return 0
					}
					return l
				}
			}
		}
		return -1
	case *ast.CallExpr:
		if depth >= 4 {
			return -1
		}
		fn := calleeOf(pkg.Info, e)
		if fn == nil {
			return -1
		}
		src := p.funcSources()[fn]
		if src == nil || src.decl.Body == nil || len(src.decl.Body.List) != 1 {
			return -1
		}
		ret, ok := src.decl.Body.List[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return -1
		}
		return parityIn(p, src.pkg, ret.Results[0], depth+1)
	}
	return -1
}
