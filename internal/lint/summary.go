package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The facts engine: one pass over every loaded function body collects the
// function's direct facts — blocking operations, lock acquisitions, and
// outgoing call edges — then a Tarjan SCC pass propagates two summaries to
// a fixpoint over the same-goroutine call graph:
//
//	may-block      reaches a blocking operation (blocking.go classifies;
//	               bypassviolation, lockdiscipline)
//	locks-acquired the set of lock classes the function may take
//	               (lockorder's interprocedural edges)
//
// Members of one SCC (mutual recursion) share their merged facts: a
// blocking op anywhere in the cycle makes every member may-block.

// factOp is one blocking operation found in a function body.
type factOp struct {
	pos  token.Pos
	desc string // e.g. "channel receive", "time.Sleep"
	// condWait marks (*sync.Cond).Wait, which is the one blocking call
	// that is legitimate while holding a mutex (its own): lockdiscipline
	// exempts it when it appears directly in the locked function.
	condWait bool
}

// lockAcq is one direct lock acquisition, classified (see lockClassOf).
type lockAcq struct {
	pos   token.Pos
	class string // "" when the mutex expression has no stable class
}

// lockVia records where a transitively acquired lock class comes from.
type lockVia struct {
	pos   token.Pos
	owner *types.Func // function containing the acquisition
}

// callEdge is one outgoing call recorded during the scan.
type callEdge struct {
	to   *types.Func
	pos  token.Pos
	kind edgeKind
}

// funcFacts is everything the engine knows about one module function.
type funcFacts struct {
	fn  *types.Func
	pkg *Package

	// Direct facts from the body scan.
	block []factOp
	locks []lockAcq
	calls []callEdge

	// Fixpoint results.
	mayBlock bool
	lockSet  map[string]lockVia
}

// engine owns the call graph and the fixpoint summaries for one Program.
// After the build, facts are read-only.
type engine struct {
	p     *Program
	facts map[*types.Func]*funcFacts
	impls map[*types.Func][]*types.Func // implsOf memo
	named []*types.Named                // namedTypes memo
}

// engine builds (once) and returns the facts engine.
func (p *Program) engine() *engine {
	if p.eng != nil {
		return p.eng
	}
	e := &engine{
		p:     p,
		facts: make(map[*types.Func]*funcFacts),
		impls: make(map[*types.Func][]*types.Func),
	}
	for fn, src := range p.funcSources() {
		e.facts[fn] = e.scan(fn, src)
	}
	e.propagate()
	p.eng = e
	return e
}

// propagate runs Tarjan's SCC algorithm over the same-goroutine call
// graph and resolves every component's merged facts in reverse
// topological order (components pop only after all their successors).
func (e *engine) propagate() {
	fns := make([]*types.Func, 0, len(e.facts))
	for fn := range e.facts {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		a, b := e.facts[fns[i]], e.facts[fns[j]]
		if a.pkg.Path != b.pkg.Path {
			return a.pkg.Path < b.pkg.Path
		}
		return fns[i].FullName() < fns[j].FullName()
	})

	index := make(map[*types.Func]int, len(fns))
	lowlink := make(map[*types.Func]int, len(fns))
	onStack := make(map[*types.Func]bool, len(fns))
	var stack []*types.Func
	next := 0

	var connect func(fn *types.Func)
	connect = func(fn *types.Func) {
		index[fn] = next
		lowlink[fn] = next
		next++
		stack = append(stack, fn)
		onStack[fn] = true

		for _, t := range e.succs(e.facts[fn]) {
			if _, seen := index[t]; !seen {
				connect(t)
				if lowlink[t] < lowlink[fn] {
					lowlink[fn] = lowlink[t]
				}
			} else if onStack[t] && index[t] < lowlink[fn] {
				lowlink[fn] = index[t]
			}
		}

		if lowlink[fn] == index[fn] {
			var scc []*types.Func
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				scc = append(scc, top)
				if top == fn {
					break
				}
			}
			e.resolve(scc)
		}
	}
	for _, fn := range fns {
		if _, seen := index[fn]; !seen {
			connect(fn)
		}
	}
}

// resolve computes the merged facts of one SCC. Every successor outside
// the component is already resolved (Tarjan pops components in reverse
// topological order), so a single union suffices.
func (e *engine) resolve(scc []*types.Func) {
	member := make(map[*types.Func]bool, len(scc))
	for _, fn := range scc {
		member[fn] = true
	}
	mayBlock := false
	locks := make(map[string]lockVia)
	for _, fn := range scc {
		f := e.facts[fn]
		mayBlock = mayBlock || len(f.block) > 0
		for _, la := range f.locks {
			if la.class == "" {
				continue
			}
			if _, ok := locks[la.class]; !ok {
				locks[la.class] = lockVia{pos: la.pos, owner: fn}
			}
		}
		for i := range f.calls {
			c := &f.calls[i]
			var targets []*types.Func
			switch c.kind {
			case edgeStatic:
				targets = []*types.Func{c.to}
			case edgeDynamic:
				targets = e.implsOf(c.to)
			default: // edgeGo: spawned work is not same-goroutine
				continue
			}
			for _, t := range targets {
				tf := e.facts[t]
				if tf == nil || member[t] {
					continue // bodiless, or merged as a member above
				}
				mayBlock = mayBlock || tf.mayBlock
				if c.kind == edgeStatic {
					// Lock classes do not cross interface boundaries: the
					// hierarchy is declared per concrete layer, and a held
					// lock crossing into an arbitrary transport impl would
					// conflate orders that cannot hold simultaneously.
					for class, via := range tf.lockSet {
						if _, ok := locks[class]; !ok {
							locks[class] = via
						}
					}
				}
			}
		}
	}
	for _, fn := range scc {
		f := e.facts[fn]
		f.mayBlock = mayBlock
		f.lockSet = locks
	}
}

// scan collects one function's direct facts.
func (e *engine) scan(fn *types.Func, src *funcSource) *funcFacts {
	f := &funcFacts{fn: fn, pkg: src.pkg}
	if src.decl.Body == nil {
		return f
	}
	s := &factsScanner{pkg: src.pkg, f: f}
	ast.Inspect(src.decl.Body, s.walker(false))
	return f
}

// factsScanner walks one body, accumulating facts.
type factsScanner struct {
	pkg *Package
	f   *funcFacts
}

func (s *factsScanner) block(pos token.Pos, desc string, condWait bool) {
	s.f.block = append(s.f.block, factOp{pos: pos, desc: desc, condWait: condWait})
}

// walker returns the inspection callback. noBlock suppresses blocking
// classification — used for select comm statements, whose send/receive is
// attempt-only and attributed to the select itself.
func (s *factsScanner) walker(noBlock bool) func(ast.Node) bool {
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The literal's body runs on its own call path (analyzed when
			// invoked), not where the closure is created.
			return false

		case *ast.GoStmt:
			if callee := calleeOf(s.pkg.Info, n.Call); callee != nil && s.pkg != nil {
				s.f.calls = append(s.f.calls, callEdge{to: callee, pos: n.Pos(), kind: edgeGo})
			}
			// Arguments are evaluated on the launching goroutine.
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false

		case *ast.SelectStmt:
			if !noBlock {
				blocking := true
				for _, c := range n.Body.List {
					if c.(*ast.CommClause).Comm == nil {
						blocking = false
					}
				}
				if blocking {
					s.block(n.Pos(), "select without default", false)
				}
			}
			inner := s.walker(true)
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm != nil {
					ast.Inspect(cc.Comm, inner)
				}
				for _, st := range cc.Body {
					ast.Inspect(st, walk)
				}
			}
			return false

		case *ast.SendStmt:
			if !noBlock {
				s.block(n.Pos(), "channel send", false)
			}

		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !noBlock {
				s.block(n.Pos(), "channel receive", false)
			}

		case *ast.RangeStmt:
			if t, ok := s.pkg.Info.Types[n.X]; ok && !noBlock {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					s.block(n.Pos(), "range over channel", false)
				}
			}

		case *ast.CallExpr:
			s.call(n, noBlock)
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				ast.Inspect(sel.X, walk)
			}
			for _, arg := range n.Args {
				ast.Inspect(arg, walk)
			}
			return false
		}
		return true
	}
	return walk
}

// call records what one call expression itself contributes: a lock
// acquisition, a known-blocking API, or a call edge. Conversions, builtins
// and calls through function values contribute nothing (blocking through
// function values is out of scope).
func (s *factsScanner) call(call *ast.CallExpr, noBlock bool) {
	// sync.Mutex / sync.RWMutex methods: acquisitions feed the lock-order
	// summaries; none of them block for our purposes.
	if x, _, op := lockTarget(s.pkg.Info, call); op != "" {
		if op == "Lock" || op == "RLock" {
			s.f.locks = append(s.f.locks, lockAcq{pos: call.Pos(), class: lockClassOf(s.pkg.Info, x)})
		}
		return
	}
	fn := calleeOf(s.pkg.Info, call)
	if fn == nil {
		return
	}
	if op, ok := classifyBlockingCall(fn); ok {
		if !noBlock {
			s.block(call.Pos(), op.desc, op.condWait)
		}
		return
	}
	switch {
	case isInterfaceMethod(fn):
		s.f.calls = append(s.f.calls, callEdge{to: fn, pos: call.Pos(), kind: edgeDynamic})
	case fn.Pkg() != nil:
		s.f.calls = append(s.f.calls, callEdge{to: fn, pos: call.Pos(), kind: edgeStatic})
	}
}
