package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// mixedAtomic flags fields that are accessed both through sync/atomic
// free functions (atomic.AddUint64(&s.n, 1)) and by plain load/store
// anywhere in the module: the plain accesses race with the atomic ones,
// and the Go memory model gives them no ordering. Accesses through
// freshly constructed, not-yet-published objects are exempt (constructor
// initialization); remaining intentional sites are suppressible.
//
// Fields whose own type is a sync/atomic composite are out of scope —
// they cannot be accessed plainly without tripping vet's copylocks.
type fieldSites struct {
	atomic []token.Pos // sites accessing the field via sync/atomic
	plain  []plainSite // every other selector access
}

type plainSite struct {
	pos      token.Pos
	analyzed bool // whether the access is in an analyzed package
}

func mixedAtomic(p *Program) []Diagnostic {
	sites := make(map[*types.Var]*fieldSites)
	at := func(v *types.Var) *fieldSites {
		s := sites[v]
		if s == nil {
			s = &fieldSites{}
			sites[v] = s
		}
		return s
	}
	for _, pkg := range p.sortedPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				scanMixed(pkg, fd.Body, p.analyzed(pkg), at)
			}
		}
	}
	fields := make([]*types.Var, 0, len(sites))
	for v, s := range sites {
		if len(s.atomic) > 0 && len(s.plain) > 0 {
			fields = append(fields, v)
		}
	}
	sort.Slice(fields, func(i, j int) bool {
		return sites[fields[i]].atomic[0] < sites[fields[j]].atomic[0]
	})
	var diags []Diagnostic
	for _, v := range fields {
		s := sites[v]
		ap := p.Fset.Position(s.atomic[0])
		where := fmt.Sprintf("%s:%d", filepath.Base(ap.Filename), ap.Line)
		for _, site := range s.plain {
			if !site.analyzed {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:   p.Fset.Position(site.pos),
				Check: "mixedatomic",
				Message: fmt.Sprintf("field %s is accessed with sync/atomic (%s) but read/written plainly here",
					fieldLabel(v), where),
			})
		}
	}
	return diags
}

// scanMixed records every field selector in one function body as an
// atomic or plain site. Function literals are included: publication
// hazards do not stop at literal boundaries.
func scanMixed(pkg *Package, body *ast.BlockStmt, analyzed bool, at func(*types.Var) *fieldSites) {
	fresh := collectFresh(pkg, body)
	sanctioned := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, sel := range atomicFieldArgs(pkg.Info, n) {
				sanctioned[sel] = true
				if v := plainField(pkg, sel); v != nil {
					at(v).atomic = append(at(v).atomic, sel.Pos())
				}
			}
		case *ast.SelectorExpr:
			if sanctioned[n] {
				return false // counted as the atomic site above
			}
			v := plainField(pkg, n)
			if v == nil || freshBase(pkg.Info, fresh, n.X) {
				return true
			}
			at(v).plain = append(at(v).plain, plainSite{pos: n.Pos(), analyzed: analyzed})
		}
		return true
	})
}

// atomicFieldArgs returns the field selectors a call passes by address to
// a sync/atomic free function (atomic.AddUint64(&s.n, 1)): sanctioned
// atomic accesses of plain words, for mixedatomic and guardedby alike.
func atomicFieldArgs(info *types.Info, c *ast.CallExpr) []*ast.SelectorExpr {
	fn := calleeOf(info, c)
	if fn == nil || pkgPathOf(fn) != "sync/atomic" {
		return nil
	}
	var sels []*ast.SelectorExpr
	for _, arg := range c.Args {
		if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
			if sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr); ok {
				sels = append(sels, sel)
			}
		}
	}
	return sels
}

// plainField resolves a selector to a struct field of non-atomic type
// declared in the module (stdlib fields are not ours to judge).
func plainField(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	v, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return nil
	}
	if isAtomicType(v.Type()) {
		return nil
	}
	return v
}

func fieldLabel(v *types.Var) string {
	return v.Pkg().Name() + "." + v.Name()
}
