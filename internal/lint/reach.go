package lint

import (
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Reachability over the facts engine: which blocking operations the
// delivery path's entry points reach on their own goroutine. reach is the
// bypassviolation check; firstImpl and rep also word lockdiscipline's
// findings about calls that may block.

// deliveryPackages are the packages whose message handlers form the
// delivery engine; their "on*" methods run on transport/link goroutines.
var deliveryPackages = []string{"internal/nicsim", "internal/rtscts"}

// isDeliveryEntry reports whether f is a delivery-path entry point: an on*
// handler (onMessage, onPacket, onData, …) of a delivery package.
func isDeliveryEntry(f *funcFacts) bool {
	name := f.fn.Name()
	if len(name) <= 2 || !strings.HasPrefix(name, "on") || name[2] < 'A' || name[2] > 'Z' {
		return false
	}
	for _, suffix := range deliveryPackages {
		if strings.HasSuffix(f.pkg.Path, suffix) {
			return true
		}
	}
	return false
}

func deliveryVia(chain []string) string {
	if len(chain) > 1 {
		return " (reached via " + strings.Join(chain, " -> ") + ")"
	}
	return " (in delivery handler " + chain[0] + ")"
}

// reach is bypassviolation, which enforces application bypass (§5.1): no
// function reachable from a delivery-path entry point may block — not on
// the event-queue consumer API (EQWait), not on channels, not on condition
// variables or sleeps. The delivery goroutine is the analogue of the NIC
// control program: if it blocks on application state, progress becomes
// application-driven, which is the GM/VIA failure mode the paper argues
// against.
//
// It walks the same-goroutine call graph breadth-first from each entry
// point in the analyzed packages and reports every blocking operation at
// its own position, with the shortest call chain that reaches it. Static
// calls are followed to any depth. A call through an interface is resolved
// against the module's method sets: when an implementation may block, the
// finding lands on the call site — the frontier where dynamic dispatch was
// chosen, and where an exception is legitimately documented — naming the
// implementation and a representative operation. Each line is reported
// once.
func (p *Program) reach() []Diagnostic {
	e := p.engine()
	var roots []*types.Func
	for fn, f := range e.facts {
		if p.analyzed(f.pkg) && isDeliveryEntry(f) {
			roots = append(roots, fn)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if a, b := funcLabel(roots[i]), funcLabel(roots[j]); a != b {
			return a < b
		}
		return roots[i].FullName() < roots[j].FullName()
	})

	var diags []Diagnostic
	reported := make(map[string]bool) // file:line dedup across roots
	report := func(pos token.Pos, msg string) {
		position := p.Fset.Position(pos)
		key := position.Filename + ":" + strconv.Itoa(position.Line)
		if !reported[key] {
			reported[key] = true
			diags = append(diags, Diagnostic{Pos: position, Check: "bypassviolation", Message: msg})
		}
	}
	type node struct {
		fn    *types.Func
		chain []string
	}
	for _, root := range roots {
		visited := map[*types.Func]bool{root: true}
		queue := []node{{fn: root, chain: []string{funcLabel(root)}}}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			f := e.facts[n.fn]
			if !f.mayBlock {
				continue
			}
			for _, op := range f.block {
				report(op.pos, op.desc+" on the delivery path"+deliveryVia(n.chain))
			}
			for _, c := range f.calls {
				switch c.kind {
				case edgeStatic:
					if tf := e.facts[c.to]; tf != nil && tf.mayBlock && !visited[c.to] {
						visited[c.to] = true
						chain := append(append([]string(nil), n.chain...), funcLabel(c.to))
						queue = append(queue, node{fn: c.to, chain: chain})
					}
				case edgeDynamic:
					if impl := e.firstImpl(c.to); impl != nil {
						report(c.pos, "dynamic call "+funcLabel(c.to)+" on the delivery path may block: implementation "+
							funcLabel(impl)+" ("+e.rep(impl)+")"+deliveryVia(n.chain))
					}
				}
			}
		}
	}
	return diags
}

// firstImpl returns the first module implementation behind an interface
// method that may block on its own account, or nil.
func (e *engine) firstImpl(ifn *types.Func) *types.Func {
	for _, impl := range e.implsOf(ifn) {
		if f := e.facts[impl]; f != nil && f.mayBlock {
			return impl
		}
	}
	return nil
}

// rep describes a representative blocking operation reachable from fn, for
// call-site diagnostics ("channel send via Queue.postFull"): the nearest one
// breadth-first, named with the first call that leads to it.
func (e *engine) rep(fn *types.Func) string {
	type node struct {
		fn  *types.Func
		via string
	}
	seen := map[*types.Func]bool{fn: true}
	queue := []node{{fn, ""}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		f := e.facts[n.fn]
		if f == nil || !f.mayBlock {
			continue
		}
		if len(f.block) > 0 {
			if n.via != "" {
				return f.block[0].desc + " via " + n.via
			}
			return f.block[0].desc
		}
		for _, c := range f.calls {
			targets := []*types.Func{c.to}
			switch c.kind {
			case edgeDynamic:
				targets = e.implsOf(c.to)
			case edgeGo:
				continue
			}
			for _, t := range targets {
				if seen[t] {
					continue
				}
				seen[t] = true
				via := n.via
				if via == "" {
					via = funcLabel(t)
					if c.kind == edgeDynamic {
						via = funcLabel(c.to) + " -> " + via
					}
				}
				queue = append(queue, node{t, via})
			}
		}
	}
	return "blocking operation"
}

// funcLabel renders "Type.Method" or "pkgname.Func" for call chains.
func funcLabel(fn *types.Func) string {
	if recv := recvNamed(fn); recv != nil {
		return recv.Obj().Name() + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
