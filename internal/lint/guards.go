package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Annotation grammar for the field-level data-race surface (docs/LINT.md):
//
//	//lint:guardedby <guard>[,<guard>...]   on a struct field
//	//lint:requires <class>[,<class>...]    on a function or method
//	//lint:seqlock <stampField>             on a slot struct type
//
// A guard is the keyword "atomic" (the field is only touched through
// sync/atomic), the keyword "confined" (the field belongs to a documented
// single-goroutine type: it may only be touched from the declaring type's
// own methods, and never from a go-launched function literal), the name of
// a sibling mutex field ("mu", "owner" — classed as "Struct.field" exactly
// like lockClassOf), or a dotted lock class owned by another struct
// ("portal.mu", "State.resMu"). Alternatives are satisfied if ANY of them
// holds: memDesc fields are guarded by whichever lock owner aliases.
// Synchronous function literals inside a method inherit its confinement
// rights, exactly as they inherit //lint:requires lock grants; literals
// launched with `go` inherit neither (the goroutine outlives the call).
//
// //lint:requires seeds the annotated function's entry lock state with the
// named classes: the function documents that its callers hold those locks,
// and every call site is checked for them in turn. A class that names a
// //lint:seqlock stamp ("slot.seq") grants an open write stamp instead.
//
// A requires class may itself be an alternation, "a/b" — the caller holds
// AT LEAST ONE of the alternatives, without the function knowing which.
// This models Go's lock-aliasing idiom (core's memDesc.owner points at
// either its portal's mu or State.bindMu): the body may only rely on the
// alternation as a whole, so a held "a/b" satisfies a guard exactly when
// EVERY alternative appears in the guard's list.
//
// //lint:seqlock declares the ring-slot protocol used by eventq and
// obs/trace: every non-stamp field of the struct may only be written
// between an odd stamp store (or a winning stamp CompareAndSwap) and the
// matching even store, and only read under an open stamp or after a
// stamp-validate loop.

// guardKey addresses a struct field by its declaring (generic-origin) type
// name — the fallback identity for fields of instantiated generic types,
// whose types.Var objects differ from the declared ones.
type guardKey struct {
	owner *types.TypeName
	field string
}

// fieldGuard is one parsed //lint:guardedby annotation.
type fieldGuard struct {
	owner    string   // declaring struct name, for messages
	field    string   // field name
	classes  []string // lock-class alternatives ("Queue.mu", "portal.mu")
	atomic   bool     // the "atomic" guard was listed
	confined bool     // the "confined" guard was listed
	pos      token.Pos
}

func (g *fieldGuard) String() string {
	all := append([]string{}, g.classes...)
	if g.atomic {
		all = append(all, "atomic")
	}
	if g.confined {
		all = append(all, "confined")
	}
	return strings.Join(all, "/")
}

// seqlockDecl is one parsed //lint:seqlock annotation: the slot struct,
// its stamp field, and the stamp's lock class.
type seqlockDecl struct {
	owner string
	stamp string
	class string // owner + "." + stamp
	pos   token.Pos
}

// guardTables indexes every annotation in the loaded module. Built once
// per Program and read-only afterwards.
type guardTables struct {
	fields       map[*types.Var]*fieldGuard
	fieldsByName map[guardKey]*fieldGuard

	stamps       map[*types.Var]*seqlockDecl
	stampsByName map[guardKey]*seqlockDecl
	protected    map[*types.Var]*seqlockDecl
	protByName   map[guardKey]*seqlockDecl
	seqClasses   map[string]*seqlockDecl

	requires map[*types.Func][]string

	diags []Diagnostic // malformed annotations, tagged guardedby/seqlock
}

// buildGuardTables parses every annotation across all loaded packages.
// Annotations anywhere in the module apply globally; malformed ones are
// reported only for the packages under analysis (like //lint:lockrank).
func buildGuardTables(p *Program) *guardTables {
	t := &guardTables{
		fields:       make(map[*types.Var]*fieldGuard),
		fieldsByName: make(map[guardKey]*fieldGuard),
		stamps:       make(map[*types.Var]*seqlockDecl),
		stampsByName: make(map[guardKey]*seqlockDecl),
		protected:    make(map[*types.Var]*seqlockDecl),
		protByName:   make(map[guardKey]*seqlockDecl),
		seqClasses:   make(map[string]*seqlockDecl),
		requires:     make(map[*types.Func][]string),
	}
	for _, pkg := range p.sortedPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok == token.TYPE {
						t.collectTypeDecl(p, pkg, d)
					}
				case *ast.FuncDecl:
					t.collectRequires(p, pkg, d)
				}
			}
		}
	}
	return t
}

// report records a malformed annotation, for packages under analysis.
func (t *guardTables) report(p *Program, pkg *Package, pos token.Pos, check, msg string) {
	if p.analyzed(pkg) {
		t.diags = append(t.diags, Diagnostic{Pos: p.Fset.Position(pos), Check: check, Message: msg})
	}
}

func (t *guardTables) collectTypeDecl(p *Program, pkg *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		doc := ts.Doc
		if doc == nil && len(d.Specs) == 1 {
			doc = d.Doc
		}
		st, isStruct := ts.Type.(*ast.StructType)
		tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
		if args, pos, ok := directiveIn(doc, "seqlock"); ok {
			t.collectSeqlock(p, pkg, ts, st, tn, args, pos, isStruct)
		}
		if !isStruct || tn == nil {
			continue
		}
		for _, fld := range st.Fields.List {
			for _, doc := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
				args, pos, ok := directiveIn(doc, "guardedby")
				if !ok {
					continue
				}
				t.collectGuardedBy(p, pkg, ts, st, tn, fld, args, pos)
			}
		}
	}
}

func (t *guardTables) collectSeqlock(p *Program, pkg *Package, ts *ast.TypeSpec, st *ast.StructType,
	tn *types.TypeName, args string, pos token.Pos, isStruct bool) {
	bad := func(msg string) { t.report(p, pkg, pos, "seqlock", msg) }
	fields := strings.Fields(args)
	if len(fields) < 1 {
		bad("malformed //lint:seqlock directive: want \"//lint:seqlock stampField\"")
		return
	}
	if !isStruct || tn == nil {
		bad("//lint:seqlock applies to struct type declarations only")
		return
	}
	stamp := fields[0]
	var stampVar *types.Var
	for _, fld := range st.Fields.List {
		for _, name := range fld.Names {
			if name.Name == stamp {
				stampVar, _ = pkg.Info.Defs[name].(*types.Var)
			}
		}
	}
	if stampVar == nil {
		bad("//lint:seqlock names " + stamp + ", which is not a field of " + tn.Name())
		return
	}
	if !isSyncAtomicNamed(stampVar.Type()) {
		bad("//lint:seqlock stamp field " + stamp + " must be a sync/atomic type")
		return
	}
	decl := &seqlockDecl{owner: tn.Name(), stamp: stamp, class: tn.Name() + "." + stamp, pos: pos}
	t.stamps[stampVar] = decl
	t.stampsByName[guardKey{tn, stamp}] = decl
	t.seqClasses[decl.class] = decl
	for _, fld := range st.Fields.List {
		for _, name := range fld.Names {
			if name.Name == stamp {
				continue
			}
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				t.protected[v] = decl
				t.protByName[guardKey{tn, name.Name}] = decl
			}
		}
	}
}

func (t *guardTables) collectGuardedBy(p *Program, pkg *Package, ts *ast.TypeSpec, st *ast.StructType,
	tn *types.TypeName, fld *ast.Field, args string, pos token.Pos) {
	bad := func(msg string) { t.report(p, pkg, pos, "guardedby", msg) }
	fields := strings.Fields(args)
	if len(fields) < 1 {
		bad("malformed //lint:guardedby directive: want \"//lint:guardedby guard[,guard...]\"")
		return
	}
	g := &fieldGuard{owner: tn.Name(), pos: pos}
	for _, guard := range strings.Split(fields[0], ",") {
		switch {
		case guard == "atomic":
			g.atomic = true
		case guard == "confined":
			g.confined = true
		case guard == "":
			bad("malformed //lint:guardedby directive: empty guard name")
			return
		case strings.Contains(guard, "."):
			g.classes = append(g.classes, guard)
		default:
			// A bare name must be a sibling mutex field of the same struct.
			if !siblingMutex(pkg, st, guard) {
				bad("//lint:guardedby guard " + guard + " is not a sibling sync.Mutex/RWMutex field of " + tn.Name())
				return
			}
			g.classes = append(g.classes, tn.Name()+"."+guard)
		}
	}
	if len(fld.Names) == 0 {
		bad("//lint:guardedby cannot annotate an embedded field")
		return
	}
	for _, name := range fld.Names {
		fg := *g
		fg.field = name.Name
		if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
			t.fields[v] = &fg
			t.fieldsByName[guardKey{tn, name.Name}] = &fg
		}
	}
}

// collectRequires parses //lint:requires on a function declaration's doc
// comment. Bare names resolve against the method receiver's struct.
func (t *guardTables) collectRequires(p *Program, pkg *Package, d *ast.FuncDecl) {
	args, pos, ok := directiveIn(d.Doc, "requires")
	if !ok {
		return
	}
	bad := func(msg string) { t.report(p, pkg, pos, "guardedby", msg) }
	fields := strings.Fields(args)
	if len(fields) < 1 {
		bad("malformed //lint:requires directive: want \"//lint:requires class[,class...]\"")
		return
	}
	fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
	if fn == nil {
		return
	}
	var classes []string
	for _, class := range strings.Split(fields[0], ",") {
		if class == "" {
			bad("malformed //lint:requires directive: empty class name")
			return
		}
		// Each comma element may be an alternation of "/"-separated
		// classes; bare alternatives resolve against the receiver struct.
		alts := strings.Split(class, "/")
		for i, alt := range alts {
			if alt == "" {
				bad("malformed //lint:requires directive: empty class name")
				return
			}
			if !strings.Contains(alt, ".") {
				recv := recvNamed(fn)
				if recv == nil {
					bad("//lint:requires " + alt + ": bare guard names need a method receiver; use Struct.field")
					return
				}
				alts[i] = recv.Origin().Obj().Name() + "." + alt
			}
		}
		classes = append(classes, strings.Join(alts, "/"))
	}
	t.requires[fn] = classes
}

// siblingMutex reports whether the struct declares a field of the given
// name whose type is sync.Mutex/RWMutex (possibly behind a pointer).
func siblingMutex(pkg *Package, st *ast.StructType, name string) bool {
	for _, fld := range st.Fields.List {
		for _, id := range fld.Names {
			if id.Name != name {
				continue
			}
			v, ok := pkg.Info.Defs[id].(*types.Var)
			if !ok {
				return false
			}
			t := v.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
				return false
			}
			n := named.Obj().Name()
			return n == "Mutex" || n == "RWMutex"
		}
	}
	return false
}

// isSyncAtomicNamed reports whether t is a named sync/atomic type
// (atomic.Uint64 and friends).
func isSyncAtomicNamed(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// selOrigin resolves a field selection to its generic-origin guardKey. For
// ordinary structs this is just (declaring type, field name); for fields
// of instantiated generics it recovers the origin TypeName so annotations
// on the generic declaration apply to every instantiation.
func selOrigin(info *types.Info, sel *ast.SelectorExpr, obj *types.Var) (guardKey, bool) {
	s, ok := info.Selections[sel]
	if !ok {
		return guardKey{}, false
	}
	t := s.Recv()
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return guardKey{}, false
	}
	return guardKey{named.Origin().Obj(), obj.Name()}, true
}

// guardFor returns the //lint:guardedby annotation covering a selection.
func (t *guardTables) guardFor(info *types.Info, sel *ast.SelectorExpr, obj *types.Var) *fieldGuard {
	if g := t.fields[obj]; g != nil {
		return g
	}
	if len(t.fieldsByName) > 0 {
		if k, ok := selOrigin(info, sel, obj); ok {
			return t.fieldsByName[k]
		}
	}
	return nil
}

// protectedBy returns the //lint:seqlock declaration protecting a selected
// field (nil for the stamp itself and for unannotated structs).
func (t *guardTables) protectedBy(info *types.Info, sel *ast.SelectorExpr, obj *types.Var) *seqlockDecl {
	if d := t.protected[obj]; d != nil {
		return d
	}
	if len(t.protByName) > 0 {
		if k, ok := selOrigin(info, sel, obj); ok {
			return t.protByName[k]
		}
	}
	return nil
}

// stampFor returns the //lint:seqlock declaration whose stamp field the
// selection names, or nil.
func (t *guardTables) stampFor(info *types.Info, sel *ast.SelectorExpr) *seqlockDecl {
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return nil
	}
	if d := t.stamps[obj]; d != nil {
		return d
	}
	if len(t.stampsByName) > 0 {
		if k, ok := selOrigin(info, sel, obj); ok {
			return t.stampsByName[k]
		}
	}
	return nil
}
