package lint

import (
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Reachability reporting over the facts engine: which operations with a
// given effect can a set of root functions reach on their own goroutine.
// A check of this shape is one row of the effects table — which roots,
// how a finding reads — and the search is shared.

// effectRow is what distinguishes one reachability check from another.
type effectRow struct {
	check string
	// root selects the functions the property is demanded of.
	root func(*funcFacts) bool
	// opMsg words a reachable operation, dynMsg a dynamic dispatch one of
	// whose implementations has the effect; chain is the call path from
	// the root.
	opMsg  func(chain []string, desc string) string
	dynMsg func(chain []string, iface, impl, rep string) string
	// unknown describes an effect whose operation the search cannot name.
	unknown string
}

// deliveryPackages are the packages whose message handlers form the
// delivery engine; their "on*" methods run on transport/link goroutines.
var deliveryPackages = []string{"internal/nicsim", "internal/rtscts"}

var effects = [numEffects]effectRow{
	// bypassviolation enforces application bypass (§5.1): no function
	// reachable from a delivery-path entry point (onMessage, onPacket,
	// onData, onAck …) may block — not on the event-queue consumer API
	// (EQWait), not on channels, not on condition variables or sleeps. The
	// delivery goroutine is the analogue of the NIC control program: if it
	// blocks on application state, progress becomes application-driven,
	// which is the GM/VIA failure mode the paper argues against.
	effBlock: {
		check: "bypassviolation",
		root: func(f *funcFacts) bool {
			name := f.fn.Name() // handler names: onMessage, onPacket, onData, …
			isEntry := len(name) > 2 && strings.HasPrefix(name, "on") && name[2] >= 'A' && name[2] <= 'Z'
			return isEntry && isDeliveryPackage(f.pkg.Path)
		},
		opMsg: func(chain []string, desc string) string {
			return desc + " on the delivery path" + deliveryVia(chain)
		},
		dynMsg: func(chain []string, iface, impl, rep string) string {
			return "dynamic call " + iface + " on the delivery path may block: implementation " +
				impl + " (" + rep + ")" + deliveryVia(chain)
		},
		unknown: "blocking operation",
	},
	// noalloc turns the repo's runtime zero-allocation assertions
	// (core/alloc_test.go, trace's AllocsPerRun tests) into static proofs:
	// a function whose doc comment carries
	//
	//	//lint:noalloc [rationale]
	//
	// must be transitively allocation-free on the same goroutine. The
	// may-allocate summary covers new/make/append, slice/map literals and
	// map writes, &composite escapes, closures and go statements, string
	// concatenation and string<->[]byte conversions, interface boxing
	// (arguments, assignments, returns, composite fields), and calls to
	// standard-library functions outside a small allowlist of
	// known-allocation-free APIs (allocFreeExternal). An annotated callee
	// is a trust boundary: it is verified separately, so callers do not
	// descend into it. Intended slow paths inside a noalloc root (a pool
	// miss, an amortized append) carry `//lint:ignore noalloc <reason>`
	// like any other finding.
	effAlloc: {
		check: "noalloc",
		root:  func(f *funcFacts) bool { return f.noalloc },
		opMsg: func(chain []string, desc string) string {
			return strings.Join(chain, " -> ") + ": " + desc + " on a //lint:noalloc path"
		},
		dynMsg: func(chain []string, iface, impl, rep string) string {
			return strings.Join(chain, " -> ") + ": dynamic call " + iface + " may allocate (implementation " +
				impl + ": " + rep + ")"
		},
		unknown: "allocation",
	},
}

func deliveryVia(chain []string) string {
	if len(chain) > 1 {
		return " (reached via " + strings.Join(chain, " -> ") + ")"
	}
	return " (in delivery handler " + chain[0] + ")"
}

func isDeliveryPackage(path string) bool {
	for _, suffix := range deliveryPackages {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// reach walks the same-goroutine call graph breadth-first from each root
// of effect k in the analyzed packages and reports every operation with
// the effect at its own position, with the shortest call chain that
// reaches it. Static calls are followed to any depth, stopping at trusted
// callees. A call through an interface is resolved against the module's
// method sets: when an implementation has the effect, the finding lands
// on the call site — the frontier where dynamic dispatch was chosen, and
// where an exception is legitimately documented — naming the
// implementation and a representative operation. Each line is reported
// once.
func (p *Program) reach(k effectKind) []Diagnostic {
	e := p.engine()
	row := &effects[k]
	var roots []*types.Func
	for fn, f := range e.facts {
		if p.analyzed(f.pkg) && row.root(f) {
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
			diags = append(diags, Diagnostic{Pos: position, Check: row.check, Message: msg})
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
			if !f.may[k] {
				continue
			}
			for _, op := range f.ops[k] {
				report(op.pos, row.opMsg(n.chain, op.desc))
			}
			for _, c := range f.calls {
				switch c.kind {
				case edgeStatic:
					if tf := e.facts[c.to]; tf != nil && tf.may[k] && !tf.trusted(k) && !visited[c.to] {
						visited[c.to] = true
						chain := append(append([]string(nil), n.chain...), funcLabel(c.to))
						queue = append(queue, node{fn: c.to, chain: chain})
					}
				case edgeDynamic:
					if impl := e.firstImpl(c.to, k); impl != nil {
						report(c.pos, row.dynMsg(n.chain, funcLabel(c.to), funcLabel(impl), e.rep(k, impl)))
					}
				}
			}
		}
	}
	return diags
}

// firstImpl returns the first module implementation behind an interface
// method that has effect k on its own account, or nil.
func (e *engine) firstImpl(ifn *types.Func, k effectKind) *types.Func {
	for _, impl := range e.implsOf(ifn) {
		if f := e.facts[impl]; f != nil && f.may[k] && !f.trusted(k) {
			return impl
		}
	}
	return nil
}

// rep describes a representative operation with effect k reachable from
// fn, for call-site diagnostics ("channel send via Queue.postFull"): the
// nearest one breadth-first, named with the first call that leads to it.
func (e *engine) rep(k effectKind, fn *types.Func) string {
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
		if f == nil || !f.may[k] {
			continue
		}
		if ops := f.ops[k]; len(ops) > 0 {
			if n.via != "" {
				return ops[0].desc + " via " + n.via
			}
			return ops[0].desc
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
				if tf := e.facts[t]; seen[t] || tf != nil && tf.trusted(k) {
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
	return effects[k].unknown
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
