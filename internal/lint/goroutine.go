package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// goroutineLifecycle verifies that every goroutine launched in non-test code
// has a reachable shutdown path. The failure shape it targets is the
// unkillable worker: `go func() { for { work() } }()`. A goroutine whose
// body runs to completion is fine; an unconditional loop is fine if it can
// exit — through a return, a break of that loop, a select (whose cases can
// observe a closed done channel), or a channel receive/range (which
// unblocks on close). A loop with none of these outlives every shutdown
// signal the program could send.
//
// A `for range ch` worker loop is the worker-pool shutdown pattern: the
// loop exits when the dispatch channel is closed (typically paired with a
// sync.WaitGroup the closer waits on — internal/nicsim's delivery lanes).
// The check accepts it when the ranged channel is provably closed
// somewhere in the package: the channel must resolve to a struct field or
// package-level variable (same types.Object) that appears in a close()
// call. Bodies with their own exit (return, break) pass outright; channels
// the analysis cannot resolve — locals that may escape, parameters closed
// by a caller — are skipped rather than guessed at.
func goroutineLifecycle(p *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body := goBody(p, pkg, g)
				if body == nil {
					return true
				}
				forEachStmt(body, func(s ast.Stmt) {
					switch loop := s.(type) {
					case *ast.ForStmt:
						if !isUnconditional(loop) {
							return
						}
						label := labelOf(body, loop)
						if !canExit(loop.Body, label, true) {
							diags = append(diags, Diagnostic{
								Pos:   p.Fset.Position(g.Pos()),
								Check: "goroutinelifecycle",
								Message: "goroutine loops forever with no shutdown path (unconditional for at line " +
									itoaLine(p, loop.Pos()) + " has no return, break, select, or channel receive)",
							})
						}
					case *ast.RangeStmt:
						if d, bad := rangeLoopDiag(p, pkg, body, g, loop); bad {
							diags = append(diags, d)
						}
					}
				})
				return true
			})
		}
	}
	return diags
}

// goBody resolves the function a go statement runs: a literal's body, or
// the body of a statically known module function.
func goBody(p *Program, pkg *Package, g *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn := calleeOf(pkg.Info, g.Call); fn != nil {
		if src, ok := p.funcSources()[fn]; ok {
			return src.decl.Body
		}
	}
	return nil
}

// forEachStmt visits every statement in body, not descending into nested
// function literals.
func forEachStmt(body *ast.BlockStmt, f func(ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if s, ok := n.(ast.Stmt); ok {
			f(s)
		}
		return true
	})
}

// isUnconditional matches `for {` and `for true {`.
func isUnconditional(loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return true
	}
	id, ok := loop.Cond.(*ast.Ident)
	return ok && id.Name == "true"
}

// rangeLoopDiag analyzes one `for range` statement in a goroutine body and
// returns a diagnostic if it ranges forever over a channel nothing closes.
func rangeLoopDiag(p *Program, pkg *Package, body *ast.BlockStmt, g *ast.GoStmt, loop *ast.RangeStmt) (Diagnostic, bool) {
	t, ok := pkg.Info.Types[loop.X]
	if !ok || t.Type == nil {
		return Diagnostic{}, false
	}
	if _, isChan := t.Type.Underlying().(*types.Chan); !isChan {
		return Diagnostic{}, false // slices/maps terminate on their own
	}
	// A body that can leave the loop itself is a shutdown path, closed
	// channel or not. Unlike a bare `for {}`, a select or receive does NOT
	// exit a range loop, so only return/break/goto count here.
	if canExit(loop.Body, labelOf(body, loop), false) {
		return Diagnostic{}, false
	}
	obj := chanObjOf(pkg, loop.X)
	if !closeEnforceable(pkg, obj) {
		return Diagnostic{}, false // local or parameter: the closer may be elsewhere
	}
	if packageCloses(pkg, obj) {
		return Diagnostic{}, false // worker-pool pattern: dispatch channel is closed
	}
	return Diagnostic{
		Pos:   p.Fset.Position(g.Pos()),
		Check: "goroutinelifecycle",
		Message: "goroutine ranges forever over channel " + obj.Name() + " (line " +
			itoaLine(p, loop.Pos()) + ") that this package never closes — worker pools " +
			"shut down by closing the dispatch channel (and waiting on the workers' wait-group)",
	}, true
}

// chanObjOf resolves the channel expression of a range/close to the
// variable it names: an identifier, or a field/package selector. Anything
// else (a call result, an index expression) is nil — unresolvable.
func chanObjOf(pkg *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok {
			return sel.Obj() // field: one object per struct field, any receiver
		}
		return pkg.Info.Uses[e.Sel] // package-qualified variable
	}
	return nil
}

// closeEnforceable reports whether obj is a channel home we can demand a
// close for: a struct field or a package-level variable. For those, every
// close site in the package resolves to the same types.Object, so absence
// of a close is meaningful. Locals (which may escape to another closer)
// and parameters (closed by callers) are not enforceable.
func closeEnforceable(pkg *Package, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.IsField() {
		return true
	}
	return pkg.Pkg != nil && v.Parent() == pkg.Pkg.Scope()
}

// packageCloses reports whether any file in the package contains
// close(x) with x resolving to obj.
func packageCloses(pkg *Package, obj types.Object) bool {
	closes := false
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if closes {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "close" {
				return true
			}
			if _, builtin := pkg.Info.Uses[id].(*types.Builtin); !builtin {
				return true // shadowed close
			}
			if chanObjOf(pkg, call.Args[0]) == obj {
				closes = true
			}
			return true
		})
		if closes {
			break
		}
	}
	return closes
}

// labelOf finds the label attached to a loop, if any.
func labelOf(body *ast.BlockStmt, loop ast.Stmt) string {
	label := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok && ls.Stmt == loop {
			label = ls.Label.Name
		}
		return true
	})
	return label
}

// canExit reports whether a loop body contains a way out: a return, a
// break that targets this loop, or a goto (assumed to leave). Breaks
// inside nested loops, switches, and selects target those constructs, not
// this loop, and do not count unless labeled. With commExits — for an
// unconditional `for`, not a `range` over a channel — a select statement
// or a channel receive is a way out too: it can observe a closed channel.
func canExit(body *ast.BlockStmt, label string, commExits bool) bool {
	exits := false
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if n == nil || exits {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			exits = true
			return
		case *ast.SelectStmt:
			if commExits {
				exits = true
				return
			}
			depth++
		case *ast.UnaryExpr:
			if commExits && n.Op == token.ARROW {
				exits = true // receive unblocks (zero value) when closed
				return
			}
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				if n.Label == nil && depth == 0 {
					exits = true
				} else if n.Label != nil && label != "" && n.Label.Name == label {
					exits = true
				}
			}
			if n.Tok == token.GOTO {
				exits = true // conservatively assume the target leaves
			}
			return
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			depth++
		}
		// Manual recursion so depth is tracked per subtree.
		children(n, func(c ast.Node) { walk(c, depth) })
	}
	walk(body, 0)
	return exits
}

// children invokes f once per direct child of n.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}

func itoaLine(p *Program, pos token.Pos) string {
	return strconv.Itoa(p.Fset.Position(pos).Line)
}
