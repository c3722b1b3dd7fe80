package lint

import (
	"go/types"
	"sort"
)

// This file is the call-graph half of the facts engine (see summary.go for
// the summaries computed over it). The graph is conservative and built
// once per Program over every loaded package:
//
//   - static edges: direct calls resolved by calleeOf (including defer —
//     a deferred call runs on the same goroutine before the frame
//     returns, so its facts belong to the caller);
//   - dynamic edges: calls through an interface method, resolved to every
//     module type whose method set satisfies the interface (stdlib
//     implementations are out of reach and handled by the call-site
//     classification in blocking.go);
//   - go edges: the spawned function is recorded but excluded from
//     same-goroutine fact propagation — launching never blocks the
//     caller.

type edgeKind uint8

const (
	edgeStatic  edgeKind = iota // direct call (or defer) to a module function
	edgeDynamic                 // call through an interface method
	edgeGo                      // target runs on a spawned goroutine
)

// implsOf resolves an interface method to every module method that can be
// behind it: each named type in the loaded packages whose (pointer) method
// set satisfies the receiver interface contributes its identically named
// method. Only methods with bodies are returned. The result is memoized.
func (e *engine) implsOf(ifn *types.Func) []*types.Func {
	if impls, ok := e.impls[ifn]; ok {
		return impls
	}
	var impls []*types.Func
	sig := ifn.Type().(*types.Signature)
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface != nil {
		for _, named := range e.namedTypes() {
			if types.IsInterface(named) {
				continue
			}
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), ifn.Name())
			m, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			m = m.Origin()
			if _, hasBody := e.p.funcSources()[m]; hasBody {
				impls = append(impls, m)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return funcLabel(impls[i]) < funcLabel(impls[j]) })
	e.impls[ifn] = impls
	return impls
}

// namedTypes collects every package-level named type across the loaded
// packages (the candidate implementors for dynamic dispatch), once.
func (e *engine) namedTypes() []*types.Named {
	if e.named != nil {
		return e.named
	}
	for _, pkg := range e.p.sortedPackages() {
		if pkg.Pkg == nil {
			continue
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				e.named = append(e.named, named)
			}
		}
	}
	if e.named == nil {
		e.named = []*types.Named{}
	}
	return e.named
}

// succs returns the same-goroutine successor functions of fn's facts:
// static edges to module functions plus every implementation behind each
// dynamic edge. Go edges are excluded.
func (e *engine) succs(f *funcFacts) []*types.Func {
	var out []*types.Func
	for i := range f.calls {
		c := &f.calls[i]
		switch c.kind {
		case edgeStatic:
			if _, ok := e.facts[c.to]; ok {
				out = append(out, c.to)
			}
		case edgeDynamic:
			out = append(out, e.implsOf(c.to)...)
		}
	}
	return out
}
