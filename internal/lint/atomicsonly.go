package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// atomicsOnly enforces the hot-path counter invariant: struct types named
// "Counters" or "Stats" (or ending in either) are touched by the delivery
// engine concurrently with application reads, so every field must be a
// sync/atomic type (§4.8's dropped-message counts are incremented on the
// wire path; a plain field would need the very locks application bypass
// forbids). Both the offending field declaration and every non-atomic
// access to such a field are reported.
func atomicsOnly(p *Program) []Diagnostic {
	var diags []Diagnostic

	// Pass 1: field declarations of counter types in the analyzed packages.
	badFields := make(map[*types.Var]bool) // non-atomic fields of counter types
	for _, pkg := range p.All {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !isCounterTypeName(ts.Name.Name) {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					tv, ok := pkg.Info.Types[fld.Type]
					if !ok || isAtomicType(tv.Type) {
						continue
					}
					for _, name := range fld.Names {
						if name.Name == "_" {
							// Blank padding fields (cache-line separators
							// between atomic groups) have no accesses to
							// race; skip them.
							continue
						}
						if obj, ok := pkg.Info.Defs[name].(*types.Var); ok {
							badFields[obj] = true
						}
						if p.analyzed(pkg) {
							diags = append(diags, p.diagf("atomicsonly", name.Pos(),
								"field %s of counter type %s is not a sync/atomic type; hot-path counters must be atomics-only",
								name.Name, ts.Name.Name))
						}
					}
				}
				return true
			})
		}
	}

	// Pass 2: every use of a non-atomic counter field, wherever it occurs
	// in the analyzed packages.
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
				if !ok || !badFields[obj] {
					return true
				}
				diags = append(diags, p.diagf("atomicsonly", sel.Sel.Pos(),
					"non-atomic access to counter field %s; use a sync/atomic field type", sel.Sel.Name))
				return true
			})
		}
	}
	return diags
}

func isCounterTypeName(name string) bool {
	return strings.HasSuffix(name, "Counters") || strings.HasSuffix(name, "Stats")
}

// isAtomicType accepts sync/atomic types, arrays of them, and named struct
// types composed entirely of such types. The last case admits
// struct-of-atomics values — e.g. the obs histogram, whose buckets, sum,
// and count are all atomic.Int64 — which are exactly as safe for
// concurrent hot-path use as a bare atomic field.
func isAtomicType(t types.Type) bool {
	return isAtomicTypeRec(t, make(map[types.Type]bool))
}

func isAtomicTypeRec(t types.Type, seen map[types.Type]bool) bool {
	for {
		if seen[t] {
			// A cycle can only pass through named structs already being
			// checked; answering yes here lets the outer check decide.
			return true
		}
		seen[t] = true
		switch tt := t.(type) {
		case *types.Array:
			t = tt.Elem()
			continue
		case *types.Named:
			obj := tt.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
				return true
			}
			st, ok := tt.Underlying().(*types.Struct)
			if !ok || st.NumFields() == 0 {
				return false
			}
			for i := 0; i < st.NumFields(); i++ {
				if !isAtomicTypeRec(st.Field(i).Type(), seen) {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
}
