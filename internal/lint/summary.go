package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The facts engine: one pass over every loaded function body collects the
// function's direct facts — blocking operations, allocation operations,
// lock acquisitions, and outgoing call edges — then a Tarjan SCC pass
// propagates three summaries to a fixpoint over the same-goroutine call
// graph:
//
//	may-block      reaches a blocking operation (bypassviolation,
//	               lockdiscipline)
//	may-allocate   reaches a heap allocation (noalloc); calls to
//	               //lint:noalloc-annotated functions are trusted — the
//	               annotation is a verification boundary, each annotated
//	               function is proved separately
//	locks-acquired the set of lock classes the function may take
//	               (lockorder's interprocedural edges)
//
// Members of one SCC (mutual recursion) share their merged facts: a
// blocking op anywhere in the cycle makes every member may-block.

// effectKind names a property a function has by containing an operation
// of that kind or by calling, on its own goroutine, a function that has
// it. Each kind is one row of the effects table (reach.go).
type effectKind uint8

const (
	effBlock effectKind = iota // may park the goroutine (blocking.go classifies)
	effAlloc                   // may allocate on the heap
	numEffects
)

// factOp is one operation with an effect, found in a function body.
type factOp struct {
	pos  token.Pos
	desc string // e.g. "channel receive", "append (may grow)", "call to fmt.Sprintf (not provably allocation-free)"
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
	fn      *types.Func
	pkg     *Package
	noalloc bool // carries a //lint:noalloc annotation

	// Direct facts from the body scan.
	ops   [numEffects][]factOp
	locks []lockAcq
	calls []callEdge

	// Fixpoint results.
	may     [numEffects]bool
	lockSet map[string]lockVia
}

// trusted reports whether callers take the function's word for effect k
// rather than looking inside: a //lint:noalloc annotation is a
// verification boundary — the annotated function is proved on its own.
func (f *funcFacts) trusted(k effectKind) bool { return k == effAlloc && f.noalloc }

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
	var may [numEffects]bool
	locks := make(map[string]lockVia)
	for _, fn := range scc {
		f := e.facts[fn]
		for k := range may {
			may[k] = may[k] || len(f.ops[k]) > 0
		}
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
				for k := range may {
					may[k] = may[k] || tf.may[k] && !tf.trusted(effectKind(k))
				}
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
		f.may = may
		f.lockSet = locks
	}
}

// scan collects one function's direct facts.
func (e *engine) scan(fn *types.Func, src *funcSource) *funcFacts {
	f := &funcFacts{fn: fn, pkg: src.pkg}
	_, _, f.noalloc = directiveIn(src.decl.Doc, "noalloc")
	if src.decl.Body == nil {
		return f
	}
	s := &factsScanner{prog: e.p, pkg: src.pkg, f: f}
	if src.decl.Type.Results != nil {
		for _, field := range src.decl.Type.Results.List {
			if t, ok := src.pkg.Info.Types[field.Type]; ok {
				n := len(field.Names)
				if n == 0 {
					n = 1
				}
				for i := 0; i < n; i++ {
					s.results = append(s.results, t.Type)
				}
			}
		}
	}
	ast.Inspect(src.decl.Body, s.walker(false))
	return f
}

// factsScanner walks one body, accumulating facts.
type factsScanner struct {
	prog    *Program
	pkg     *Package
	f       *funcFacts
	results []types.Type // enclosing function's result types, for return boxing
}

func (s *factsScanner) block(pos token.Pos, desc string, condWait bool) {
	s.f.ops[effBlock] = append(s.f.ops[effBlock], factOp{pos: pos, desc: desc, condWait: condWait})
}

func (s *factsScanner) alloc(pos token.Pos, desc string) {
	s.f.ops[effAlloc] = append(s.f.ops[effAlloc], factOp{pos: pos, desc: desc})
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
			// invoked); creating the closure allocates here.
			s.alloc(n.Pos(), "function literal (closure allocates)")
			return false

		case *ast.GoStmt:
			s.alloc(n.Pos(), "go statement (goroutine allocates)")
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
			switch n.Op {
			case token.ARROW:
				if !noBlock {
					s.block(n.Pos(), "channel receive", false)
				}
			case token.AND:
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.alloc(n.Pos(), "&composite literal (heap escape)")
				}
			}

		case *ast.RangeStmt:
			if t, ok := s.pkg.Info.Types[n.X]; ok && !noBlock {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					s.block(n.Pos(), "range over channel", false)
				}
			}

		case *ast.CompositeLit:
			if t, ok := s.pkg.Info.Types[n]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Slice:
					s.alloc(n.Pos(), "slice literal")
				case *types.Map:
					s.alloc(n.Pos(), "map literal")
				case *types.Struct:
					s.boxCompositeFields(n, t.Type)
				}
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD && s.isString(n) {
				s.alloc(n.Pos(), "string concatenation")
			}

		case *ast.AssignStmt:
			s.assign(n)

		case *ast.ReturnStmt:
			for i, res := range n.Results {
				if i < len(s.results) {
					s.box(res, s.results[i], "return")
				}
			}

		case *ast.CallExpr:
			s.call(n, noBlock, walk)
			return false // call handles its own descent
		}
		return true
	}
	return walk
}

// assign flags map writes, string +=, and interface boxing in plain
// assignments.
func (s *factsScanner) assign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t, ok := s.pkg.Info.Types[ix.X]; ok {
				if _, isMap := t.Type.Underlying().(*types.Map); isMap {
					s.alloc(n.Pos(), "map assignment")
				}
			}
		}
	}
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && s.isString(n.Lhs[0]) {
		s.alloc(n.Pos(), "string concatenation")
	}
	if (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) && len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			if lt := s.typeOf(lhs); lt != nil {
				s.box(n.Rhs[i], lt, "assignment")
			}
		}
	}
}

// call processes one call expression: conversions, builtins, lock
// acquisitions, blocking classification, call edges, the external-call
// allocation allowlist, and argument boxing. It descends into the
// arguments (and selector base) itself.
func (s *factsScanner) call(call *ast.CallExpr, noBlock bool, walk func(ast.Node) bool) {
	descend := func() {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			ast.Inspect(sel.X, walk)
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, walk)
		}
	}

	// Type conversion: T(x).
	if tv, ok := s.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if at, ok := s.pkg.Info.Types[call.Args[0]]; ok {
			if conversionAllocates(tv.Type, at.Type) {
				s.alloc(call.Pos(), "string<->[]byte conversion")
			} else if types.IsInterface(tv.Type.Underlying()) && boxes(at.Type) {
				s.alloc(call.Pos(), "interface conversion (boxing)")
			}
		}
		descend()
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				s.alloc(call.Pos(), "append (may grow)")
			case "make":
				s.alloc(call.Pos(), "make")
			case "new":
				s.alloc(call.Pos(), "new")
			case "print", "println":
				s.alloc(call.Pos(), b.Name()+" builtin")
			}
			descend()
			return
		}
	}

	// sync.Mutex / sync.RWMutex methods: acquisitions feed the lock-order
	// summaries; none of them block or allocate for our purposes.
	if x, _, op := lockTarget(s.pkg.Info, call); op != "" {
		if op == "Lock" || op == "RLock" {
			s.f.locks = append(s.f.locks, lockAcq{pos: call.Pos(), class: lockClassOf(s.pkg.Info, x)})
		}
		descend()
		return
	}

	fn := calleeOf(s.pkg.Info, call)
	if fn == nil {
		// Function-value call: target unknown, assume the worst for
		// allocation (blocking through function values is out of scope,
		// as before).
		s.alloc(call.Pos(), "dynamic function-value call (not analyzable)")
		s.boxCallArgs(call)
		descend()
		return
	}

	if op, ok := classifyBlockingCall(fn); ok {
		if !noBlock {
			s.block(call.Pos(), op.desc, op.condWait)
		}
		// A known-blocking API never sits on a zero-alloc path; still
		// record the allocation conservatively if it is external.
		if fn.Pkg() != nil && !allocFreeExternal(fn) {
			s.alloc(call.Pos(), "call to "+funcLabel(fn)+" (not provably allocation-free)")
		}
		s.boxCallArgs(call)
		descend()
		return
	}

	switch {
	case isInterfaceMethod(fn):
		s.f.calls = append(s.f.calls, callEdge{to: fn, pos: call.Pos(), kind: edgeDynamic})
	case fn.Pkg() != nil:
		s.f.calls = append(s.f.calls, callEdge{to: fn, pos: call.Pos(), kind: edgeStatic})
		if !s.prog.isLocal(pkgPathOf(fn)) && !allocFreeExternal(fn) {
			s.alloc(call.Pos(), "call to "+funcLabel(fn)+" (not provably allocation-free)")
		}
	}
	s.boxCallArgs(call)
	descend()
}

// boxCallArgs flags interface boxing of call arguments against the
// callee's parameter types (fmt.Sprintf's variadic ...any is the classic).
func (s *factsScanner) boxCallArgs(call *ast.CallExpr) {
	tv, ok := s.pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(np - 1).Type()
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = params.At(i).Type()
		}
		if pt != nil {
			s.box(arg, pt, "argument")
		}
	}
}

// boxCompositeFields flags interface boxing inside a struct composite
// literal.
func (s *factsScanner) boxCompositeFields(n *ast.CompositeLit, t types.Type) {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range n.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			name, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			for j := 0; j < st.NumFields(); j++ {
				if st.Field(j).Name() == name.Name {
					s.box(kv.Value, st.Field(j).Type(), "composite field")
					break
				}
			}
		} else if i < st.NumFields() {
			s.box(elt, st.Field(i).Type(), "composite field")
		}
	}
}

// box records an allocation when assigning src to an interface-typed
// target converts (boxes) a concrete, non-pointer-shaped value.
func (s *factsScanner) box(src ast.Expr, target types.Type, where string) {
	if !types.IsInterface(target.Underlying()) {
		return
	}
	st := s.typeOf(src)
	if st == nil || !boxes(st) {
		return
	}
	s.alloc(src.Pos(), "interface boxing ("+where+" of "+st.String()+")")
}

func (s *factsScanner) typeOf(e ast.Expr) types.Type {
	if tv, ok := s.pkg.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj, ok := s.pkg.Info.Defs[id]; ok && obj != nil {
			return obj.Type()
		}
		if obj, ok := s.pkg.Info.Uses[id]; ok && obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func (s *factsScanner) isString(e ast.Expr) bool {
	t := s.typeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// boxes reports whether storing a value of type t into an interface
// allocates: anything except an interface, nil, or a pointer-shaped type
// (pointers, channels, maps, funcs, unsafe pointers) needs a heap box.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

// conversionAllocates reports string<->[]byte/[]rune conversions.
func conversionAllocates(to, from types.Type) bool {
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// allocFreeExternal is the allowlist of standard-library calls known not
// to allocate — exactly what the zero-alloc fast paths are built from:
// atomics, mutex ops, monotonic clock reads, bit tricks, and fixed-width
// binary encoding. Everything else outside the module is assumed to
// allocate (fmt, errors, sort, …).
func allocFreeExternal(fn *types.Func) bool {
	path := pkgPathOf(fn)
	name := fn.Name()
	recv := recvNamed(fn)
	switch path {
	case "sync/atomic", "math/bits":
		return true
	case "math":
		// Pure float arithmetic/bit-pattern helpers (Float64bits,
		// Float64frombits, Abs, ...): compiler intrinsics or leaf
		// functions, allocation-free. The MDAccumulate delivery step
		// (core.accumulateF64) runs these per message.
		return true
	case "runtime":
		return name == "Gosched" || name == "KeepAlive" || name == "NumCPU" || name == "GOMAXPROCS"
	case "time":
		switch name {
		case "Since", "Now", "Sub", "UnixNano", "Nanoseconds", "Microseconds", "Milliseconds", "Seconds",
			"Add", "Before", "After", "Equal", "Compare":
			return true
		case "Reset", "Stop":
			// Re-arming and disarming an existing timer: heap operations on
			// the runtime's timer structures, no allocation (eventq.Parker).
			return recv != nil && recv.Obj().Name() == "Timer"
		}
	case "encoding/binary":
		return strings.HasPrefix(name, "PutUint") || strings.HasPrefix(name, "Uint")
	case "sync":
		if recv != nil && recv.Obj().Name() == "Pool" {
			return name == "Put" // Get may call New
		}
		return true // Mutex/RWMutex/WaitGroup/Once operations
	}
	return false
}
