package lint

import (
	"go/ast"
	"go/types"
)

// checkedErr flags calls whose error result is silently discarded
// (an expression statement) when the callee belongs to the public portals
// API or the internal/core initiator layer. Those errors carry the §4.8
// failure semantics (bad handle, no space, closed interface); dropping
// them on the floor hides protocol failures. An explicit `_ =` assignment
// is visible intent and is allowed, as are defer/go statements.
func checkedErr(p *Program) []Diagnostic {
	strict := map[string]bool{
		p.ModulePath + "/portals":       true,
		p.ModulePath + "/internal/core": true,
	}
	var diags []Diagnostic
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				es, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := es.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(pkg.Info, call)
				if fn == nil || !strict[pkgPathOf(fn)] {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || !returnsError(sig) {
					return true
				}
				diags = append(diags, p.diagf("checkederr", call.Pos(),
					"error result of %s is discarded; handle it or assign it explicitly", funcLabel(fn)))
				return true
			})
		}
	}
	return diags
}

var errorType = types.Universe.Lookup("error").Type()

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}
