package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// lockOrder verifies the documented lock hierarchy (docs/PERF.md §2)
// against the whole program. The hierarchy is declared in source with
//
//	//lint:lockrank A < B
//
// meaning "a lock of class B may be acquired while a lock of class A is
// held". Lock classes name the declaring struct and field ("portal.mu",
// "State.resMu", "memDesc.owner") or, for package-level mutexes, the
// package and variable ("metrics.expvarMu").
//
// The check collects every acquisition edge — lock B taken while A is
// held — both intraprocedurally (the lockdiscipline flow state) and
// interprocedurally (a call made under A to a function whose summary says
// it may acquire B, at any depth), then reports edges that are
//
//   - undeclared: no lockrank path from A to B,
//   - reversed: the declared order says B < … < A,
//   - same-rank: B has A's own class ("never two portal locks at once").
//
// The declarations themselves must form a DAG; a cycle among them is
// reported at the offending directive.
//
// A class can also be declared
//
//	//lint:lockrank C sole
//
// meaning "C is only ever the sole lock held": every edge into or out of
// C is an error, and no `A < B` declaration may name C. This is how
// deliberately edge-free locks (core's ctr.mu, whose firing protocol
// releases it around every execution) pin their isolation in the
// hierarchy instead of merely having no declared edges yet.
func lockOrder(p *Program) []Diagnostic {
	var diags []Diagnostic
	decls, sole, bad := parseLockRanks(p)
	diags = append(diags, bad...)

	// Build the declared DAG and verify acyclicity. Sole classes may not
	// appear in ordering declarations at all.
	adj := make(map[string][]string)
	declPos := make(map[[2]string]token.Pos)
	for _, d := range decls {
		if _, isSole := sole[d.from]; isSole {
			diags = append(diags, soleDeclDiag(p, d.pos, d.from))
			continue
		}
		if _, isSole := sole[d.to]; isSole {
			diags = append(diags, soleDeclDiag(p, d.pos, d.to))
			continue
		}
		key := [2]string{d.from, d.to}
		if _, dup := declPos[key]; !dup {
			declPos[key] = d.pos
			adj[d.from] = append(adj[d.from], d.to)
		}
	}
	diags = append(diags, rankCycles(p, adj, declPos)...)

	reach := newReachability(adj)

	// Validate each acquisition edge the lock pass saw against the
	// declared order.
	for _, e := range p.lockAnalysis().edges.sorted() {
		via := ""
		if e.via != "" {
			via = " (via call to " + e.via + ")"
		}
		var msg string
		_, fromSole := sole[e.from]
		_, toSole := sole[e.to]
		switch {
		case fromSole:
			msg = e.to + " acquired" + via + " while holding " + e.from +
				", which is declared `//lint:lockrank " + e.from + " sole`: it must only ever be the sole lock held"
		case toSole:
			msg = e.to + " acquired" + via + " while holding " + e.from +
				", but " + e.to + " is declared `//lint:lockrank " + e.to + " sole`: it must only ever be the sole lock held"
		case e.from == e.to:
			msg = "acquires " + e.to + via + " while another " + e.from +
				" is already held: the hierarchy forbids two locks of the same rank (docs/PERF.md §2)"
		case reach.path(e.from, e.to):
			continue // declared, possibly transitively
		case reach.path(e.to, e.from):
			msg = "lock order reversed: " + e.to + " acquired" + via + " while holding " + e.from +
				", but the declared order is " + e.to + " < " + e.from
		default:
			msg = "undeclared lock-order edge: " + e.to + " acquired" + via + " while holding " + e.from +
				"; declare `//lint:lockrank " + e.from + " < " + e.to + "` or restructure"
		}
		diags = append(diags, Diagnostic{Pos: p.Fset.Position(e.pos), Check: "lockorder", Message: msg})
	}
	return diags
}

func soleDeclDiag(p *Program, pos token.Pos, class string) Diagnostic {
	return p.diagf("lockorder", pos, "lockrank declaration names %s, which is declared `//lint:lockrank %s sole` and may not participate in ordering edges",
		class, class)
}

// rankDecl is one parsed //lint:lockrank A < B directive.
type rankDecl struct {
	from, to string
	pos      token.Pos
}

// parseLockRanks reads the //lint:lockrank directives — both `A < B`
// ordering edges and `C sole` isolation declarations. Declarations
// anywhere in the module apply globally; malformed directives are
// reported only for the packages under analysis.
func parseLockRanks(p *Program) ([]rankDecl, map[string]token.Pos, []Diagnostic) {
	var decls []rankDecl
	sole := make(map[string]token.Pos)
	var bad []Diagnostic
	for _, d := range p.directives("lockrank") {
		fields := strings.Fields(d.args)
		if len(fields) == 2 && fields[1] == "sole" {
			if _, dup := sole[fields[0]]; !dup {
				sole[fields[0]] = d.pos
			}
			continue
		}
		if len(fields) != 3 || fields[1] != "<" || fields[0] == fields[2] {
			if p.analyzed(d.pkg) {
				bad = append(bad, p.diagf("lockorder", d.pos,
					"malformed //lint:lockrank directive: want \"//lint:lockrank name < name\" or \"//lint:lockrank name sole\""))
			}
			continue
		}
		decls = append(decls, rankDecl{from: fields[0], to: fields[2], pos: d.pos})
	}
	return decls, sole, bad
}

// rankCycles reports cycles among the declared ranks (DFS with colors).
func rankCycles(p *Program, adj map[string][]string, declPos map[[2]string]token.Pos) []Diagnostic {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var diags []Diagnostic
	var path []string
	var visit func(n string)
	visit = func(n string) {
		color[n] = gray
		path = append(path, n)
		for _, m := range adj[n] {
			switch color[m] {
			case white:
				visit(m)
			case gray:
				// Found a cycle: m ... n m. Report at the closing edge.
				cycle := []string{m}
				for i := len(path) - 1; i >= 0; i-- {
					cycle = append(cycle, path[i])
					if path[i] == m {
						break
					}
				}
				diags = append(diags, p.diagf("lockorder", declPos[[2]string{n, m}],
					"lockrank declarations form a cycle: %s", strings.Join(reverseStrings(cycle), " < ")))
			}
		}
		path = path[:len(path)-1]
		color[n] = black
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
	return diags
}

func reverseStrings(s []string) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// reachability answers "is there a declared path from a to b", memoized.
type reachability struct {
	adj  map[string][]string
	memo map[[2]string]bool
}

func newReachability(adj map[string][]string) *reachability {
	return &reachability{adj: adj, memo: make(map[[2]string]bool)}
}

func (r *reachability) path(a, b string) bool {
	key := [2]string{a, b}
	if v, ok := r.memo[key]; ok {
		return v
	}
	r.memo[key] = false // cycles resolve to false; cycles are reported separately
	for _, m := range r.adj[a] {
		if m == b || r.path(m, b) {
			r.memo[key] = true
			break
		}
	}
	return r.memo[key]
}

// lockEdge is one observed acquisition edge: a lock of class `to` taken
// (directly or through the named callee) while a lock of class `from` was
// held.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // callee label for interprocedural edges, "" for direct
}

// orderSink collects deduplicated acquisition edges during the lock pass.
type orderSink struct {
	edges map[string]lockEdge
}

func (s *orderSink) add(e lockEdge) {
	if s.edges == nil {
		s.edges = make(map[string]lockEdge)
	}
	key := e.from + "\x00" + e.to + "\x00" + strconv.Itoa(int(e.pos))
	if _, ok := s.edges[key]; !ok {
		s.edges[key] = e
	}
}

func (s *orderSink) sorted() []lockEdge {
	out := make([]lockEdge, 0, len(s.edges))
	for _, e := range s.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// lockTarget recognizes sync.Mutex/sync.RWMutex method calls and returns
// the receiver expression, its printed form, and the operation name
// ("Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock").
func lockTarget(info *types.Info, c *ast.CallExpr) (x ast.Expr, mu, op string) {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, "", ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil, "", ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return nil, "", ""
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return sel.X, types.ExprString(sel.X), sel.Sel.Name
	}
	return nil, "", ""
}

// lockClassOf maps a mutex expression to its lock class:
//
//   - a struct field ("p.mu", "s.resMu", "d.owner") classes as
//     "ReceiverType.field" via the selection's receiver type — every
//     portal's mu is one class, which is what lets the checker encode
//     "never two portal locks";
//   - a package-level var classes as "pkgname.var";
//   - anything else (locals, complex expressions) has no class and
//     produces no edges.
func lockClassOf(info *types.Info, x ast.Expr) string {
	switch e := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				t := sel.Recv()
				for {
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
						continue
					}
					break
				}
				if n, ok := t.(*types.Named); ok {
					return n.Obj().Name() + "." + v.Name()
				}
			}
			return ""
		}
		// Package-qualified: metrics.expvarMu.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Name() + "." + v.Name()
				}
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}
