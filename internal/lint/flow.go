package lint

import (
	"go/ast"
	"go/token"
)

// The structured-flow walker: one conservative abstract interpreter over
// Go statements, for an analysis that follows a per-path state through a
// function body (the lock pass, lockdiscipline.go). The walker owns control flow — clone the
// state where paths fork, merge where they join, one abstract pass per
// loop, break and continue states collected at the statement they leave
// — and an analysis supplies only what its state means: a transfer.

// flowState is the per-path abstract state of one analysis.
type flowState[S any] interface {
	clone() S
	// merge joins another incoming path into this one and returns the
	// result. Where both paths know a fact the receiver's version wins, so
	// the walker merges in source order.
	merge(S) S
}

// transfer is what an analysis supplies: the meaning of everything that
// is not control flow.
type transfer[S any] interface {
	// simple interprets a statement that nests no other statement — an
	// expression, assignment, inc/dec, declaration, send, defer or go
	// statement, or the results of a return — and reports whether control
	// stops there (a panic).
	simple(s ast.Stmt, st S) (S, bool)
	// eval interprets the expressions a control statement evaluates
	// itself: an if or for condition, a switch tag, one case list, a range
	// operand.
	eval(st S, exprs ...ast.Expr) S
	// waits is told of each statement that waits on channels by itself —
	// a select, a range — with the state it would park in.
	waits(s ast.Stmt, st S)
	// comm interprets the communication of a select clause, which has
	// already happened when the clause's body runs.
	comm(s ast.Stmt, st S) S
	// exit checks the state at a point where the function returns.
	exit(at token.Pos, st S)
}

// flow walks one function body for one analysis.
type flow[S flowState[S]] struct {
	ops     transfer[S]
	targets []*branchTarget[S]
}

// branchTarget collects the states that leave a loop, switch or select
// early: the breaks of any of them, the continues of a loop.
type branchTarget[S any] struct {
	label             string
	loop              bool
	breaks, continues []S
}

// push makes the statement being entered the target of the breaks (and,
// for a loop, the continues) inside it; pop ends it.
func (f *flow[S]) push(label string, loop bool) *branchTarget[S] {
	t := &branchTarget[S]{label: label, loop: loop}
	f.targets = append(f.targets, t)
	return t
}

func (f *flow[S]) pop() { f.targets = f.targets[:len(f.targets)-1] }

// takeBreaks hands over the break states collected so far, so a switch
// or select joins them in source order with its clauses' ends.
func (t *branchTarget[S]) takeBreaks() []S {
	b := t.breaks
	t.breaks = nil
	return b
}

// runFlow interprets body from the entry state and checks every way out.
func runFlow[S flowState[S]](ops transfer[S], body *ast.BlockStmt, entry S) {
	f := &flow[S]{ops: ops}
	if st, terminated := f.stmts(body.List, entry); !terminated {
		ops.exit(body.End(), st)
	}
}

// join merges states in order; the walker never calls it with none.
func join[S flowState[S]](states []S) S {
	out := states[0]
	for _, s := range states[1:] {
		out = out.merge(s)
	}
	return out
}

// stmts interprets a statement list and reports whether control cannot
// fall off its end (return, branch, or a statement no path leaves).
func (f *flow[S]) stmts(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var terminated bool
		if st, terminated = f.stmt(s, st); terminated {
			return st, true
		}
	}
	return st, false
}

func (f *flow[S]) stmt(s ast.Stmt, st S) (S, bool) {
	label := ""
	if ls, ok := s.(*ast.LabeledStmt); ok {
		label, s = ls.Label.Name, ls.Stmt
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return f.stmts(s.List, st)

	case *ast.LabeledStmt:
		return f.stmt(s, st)

	case *ast.ReturnStmt:
		st, _ = f.ops.simple(s, st)
		f.ops.exit(s.Pos(), st)
		return st, true

	case *ast.BranchStmt:
		// goto and fallthrough are rare enough that their path is given up
		// rather than followed.
		if t := f.target(s); t != nil {
			switch s.Tok {
			case token.BREAK:
				t.breaks = append(t.breaks, st.clone())
			case token.CONTINUE:
				t.continues = append(t.continues, st.clone())
			}
		}
		return st, true

	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = f.stmt(s.Init, st)
		}
		st = f.ops.eval(st, s.Cond)
		thenSt, elseSt := st.clone(), st.clone()
		thenEnd, thenTerm := f.stmts(s.Body.List, thenSt)
		elseEnd, elseTerm := elseSt, false
		if s.Else != nil {
			elseEnd, elseTerm = f.stmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseEnd, false
		case elseTerm:
			return thenEnd, false
		}
		return thenEnd.merge(elseEnd), false

	case *ast.ForStmt, *ast.RangeStmt:
		return f.loop(s, st, label)

	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = f.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = f.ops.eval(st, s.Tag)
		}
		return f.clauses(s.Body, st, label), false

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = f.stmt(s.Init, st)
		}
		st, _ = f.stmt(s.Assign, st)
		return f.clauses(s.Body, st, label), false

	case *ast.SelectStmt:
		f.ops.waits(s, st)
		t := f.push(label, false)
		defer f.pop()
		// The entry state stays one of the ways out, as for a switch with
		// no default; so does every break, which leaves the select.
		outs := []S{st}
		live := len(s.Body.List) == 0
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			cst := st.clone()
			if cc.Comm != nil {
				cst = f.ops.comm(cc.Comm, cst)
			}
			end, terminated := f.stmts(cc.Body, cst)
			if brk := t.takeBreaks(); len(brk) > 0 {
				outs = append(outs, brk...)
				live = true
			}
			if !terminated {
				outs = append(outs, end)
				live = true
			}
		}
		if !live {
			return st, true
		}
		return join(outs), false
	}
	return f.ops.simple(s, st)
}

// clauses interprets a switch or type-switch body. A break leaves the
// switch, so it is a way out like the end of a clause. Without a default
// — or when every clause leaves the function or a loop — the entry state
// is one of the ways out.
func (f *flow[S]) clauses(body *ast.BlockStmt, st S, label string) S {
	t := f.push(label, false)
	defer f.pop()
	hasDefault := false
	var outs []S
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		cst := f.ops.eval(st.clone(), cc.List...)
		end, terminated := f.stmts(cc.Body, cst)
		outs = append(outs, t.takeBreaks()...)
		if !terminated {
			outs = append(outs, end)
		}
	}
	if !hasDefault || len(outs) == 0 {
		outs = append([]S{st.clone()}, outs...)
	}
	return join(outs)
}

// loop gives a for or range body one abstract pass. The state in which
// the next iteration would start — the end of the body, or a continue —
// is carried to the loop's exit instead, so what a body still holds when
// it goes round is seen by whatever follows the loop. A `for { ... }`
// with no condition leaves only through break: its exit is the merge of
// the break states alone — an event loop that acquires and settles per
// iteration must not leak a phantom obligation past the loop — and with
// no break the loop never falls through.
func (f *flow[S]) loop(s ast.Stmt, st S, label string) (S, bool) {
	lc := f.push(label, true)
	defer f.pop()

	var body *ast.BlockStmt
	forever := false
	switch s := s.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = f.stmt(s.Init, st)
		}
		if s.Cond != nil {
			st = f.ops.eval(st, s.Cond)
		}
		body, forever = s.Body, s.Cond == nil
	case *ast.RangeStmt:
		st = f.ops.eval(st, s.X)
		f.ops.waits(s, st)
		body = s.Body
	}
	bodySt, exitSt := st.clone(), st.clone()
	end, terminated := f.stmts(body.List, bodySt)
	var outs []S
	if !forever {
		outs = append(outs, exitSt)
		if !terminated {
			outs = append(outs, end)
		}
		outs = append(outs, lc.continues...)
	}
	outs = append(outs, lc.breaks...)
	if len(outs) == 0 {
		return st, true
	}
	return join(outs), false
}

// target resolves the statement a break or continue leaves: the one so
// labelled, or else the innermost loop, switch or select for a break and
// the innermost loop for a continue.
func (f *flow[S]) target(s *ast.BranchStmt) *branchTarget[S] {
	for i := len(f.targets) - 1; i >= 0; i-- {
		t := f.targets[i]
		if s.Label != nil {
			if t.label == s.Label.Name {
				return t
			}
		} else if t.loop || s.Tok == token.BREAK {
			return t
		}
	}
	return nil
}

// funcBody is one analysable body of an analyzed package: a declared
// function's, or a function literal's.
type funcBody struct {
	pkg  *Package
	decl *ast.FuncDecl // enclosing declaration; nil in a package-level initializer
	lit  *ast.FuncLit  // nil for the declaration's own body
	body *ast.BlockStmt
	// inherits is set for a declaration's own body and for a literal that
	// runs synchronously within it (a sort.Search comparator, a deferred
	// closure, a callback invoked under the caller's locks): such a body
	// has what its declaration was granted — //lint:requires locks, the
	// receiver's confinement. A literal launched with `go`, and anything
	// nested in one, has neither: the goroutine outlives the call.
	inherits bool
}

// forEachBody calls fn for every function body and function literal of
// the analyzed packages — each declaration's body, then the literals in
// it outermost first, and the literals of package-level initializers.
// The flow analyses treat a literal as opaque where it appears and
// analyze its body on its own.
func (p *Program) forEachBody(fn func(funcBody)) {
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, _ := decl.(*ast.FuncDecl)
				var literals func(root ast.Node, inherits bool)
				literals = func(root ast.Node, inherits bool) {
					launched := make(map[*ast.FuncLit]bool)
					ast.Inspect(root, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.GoStmt:
							if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
								launched[lit] = true
							}
						case *ast.FuncLit:
							sub := inherits && !launched[n]
							fn(funcBody{pkg: pkg, decl: fd, lit: n, body: n.Body, inherits: sub})
							literals(n.Body, sub)
							return false
						}
						return true
					})
				}
				switch {
				case fd == nil:
					literals(decl, false)
				case fd.Body != nil:
					fn(funcBody{pkg: pkg, decl: fd, body: fd.Body, inherits: true})
					literals(fd.Body, true)
				}
			}
		}
	}
}
