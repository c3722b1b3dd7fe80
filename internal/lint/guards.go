package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Annotation grammar for the field-level data-race surface (docs/LINT.md):
//
//	//lint:guardedby <guard>[,<guard>...]   on a struct field
//	//lint:requires <class>[,<class>...]    on a function or method
//
// A guard is the keyword "confined" (the field belongs to a documented
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
// and every call site is checked for them in turn.
//
// A requires class may itself be an alternation, "a/b" — the caller holds
// AT LEAST ONE of the alternatives, without the function knowing which.
// This models Go's lock-aliasing idiom (core's memDesc.owner points at
// either its portal's mu or State.bindMu): the body may only rely on the
// alternation as a whole, so a held "a/b" satisfies a guard exactly when
// EVERY alternative appears in the guard's list.
//
// Two kinds of field are guarded by sync/atomic with no annotation at all
// (atomicGuard), and a field of a sync/atomic type needs none: the
// compiler and vet's copylocks already forbid plain access to it.

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
	confined bool     // the "confined" guard was listed
	pos      token.Pos
}

func (g *fieldGuard) String() string {
	all := append([]string{}, g.classes...)
	if g.confined {
		all = append(all, "confined")
	}
	return strings.Join(all, "/")
}

// atomicGuard is why an unannotated field may only be touched through
// sync/atomic: it is a plain field of a hot-path counter type — a struct
// named *Counters or *Stats, whose counts (§4.8's dropped messages) are
// bumped on the wire path, where the lock a plain field needs is what
// application bypass forbids — or it is passed by address to a sync/atomic
// function somewhere in the module, and a plain access would race with
// that one.
type atomicGuard struct {
	owner string // declaring struct name, for messages
	why   string
}

// guardTables indexes every annotation in the loaded module, and the
// fields guarded by sync/atomic without one. Built once per Program and
// read-only afterwards.
type guardTables struct {
	fields       map[*types.Var]*fieldGuard
	fieldsByName map[guardKey]*fieldGuard

	requires map[*types.Func][]string

	atomicOnly map[*types.Var]atomicGuard // touched through sync/atomic only

	diags []Diagnostic // malformed annotations
}

// buildGuardTables parses every annotation across all loaded packages.
// Annotations anywhere in the module apply globally; malformed ones are
// reported only for the packages under analysis (like //lint:lockrank).
func buildGuardTables(p *Program) *guardTables {
	t := &guardTables{
		fields:       make(map[*types.Var]*fieldGuard),
		fieldsByName: make(map[guardKey]*fieldGuard),
		requires:     make(map[*types.Func][]string),
		atomicOnly:   make(map[*types.Var]atomicGuard),
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
					if d.Body != nil {
						t.collectAtomicArgs(p, pkg, d.Body)
					}
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
		st, isStruct := ts.Type.(*ast.StructType)
		tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
		if !isStruct || tn == nil {
			continue
		}
		counter := isCounterTypeName(tn.Name())
		for _, fld := range st.Fields.List {
			if counter {
				t.collectCounter(pkg, tn, fld)
			}
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
			bad("\"atomic\" is not a //lint:guardedby guard: a sync/atomic field needs no annotation, " +
				"and a plain field passed to sync/atomic is held to it without one")
			return
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

// collectCounter marks the fields of a counter type that are not of an
// atomic type as atomic-guarded. Blank padding fields (cache-line
// separators between atomic groups) have no accesses to race.
func (t *guardTables) collectCounter(pkg *Package, tn *types.TypeName, fld *ast.Field) {
	for _, name := range fld.Names {
		if v, ok := pkg.Info.Defs[name].(*types.Var); ok && name.Name != "_" && !isAtomicType(v.Type()) {
			t.atomicOnly[v] = atomicGuard{owner: tn.Name(), why: tn.Name() + " is a counter type"}
		}
	}
}

// collectAtomicArgs marks every plain field a body passes by address to a
// sync/atomic function as atomic-guarded, naming the first such site. A
// counter field keeps its counter reason.
func (t *guardTables) collectAtomicArgs(p *Program, pkg *Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, sel := range atomicFieldArgs(pkg.Info, c) {
			v := plainField(pkg.Info, sel)
			if _, seen := t.atomicOnly[v]; v == nil || seen {
				continue
			}
			owner := v.Pkg().Name()
			if k, ok := selOrigin(pkg.Info, sel, v); ok {
				owner = k.owner.Name()
			}
			at := p.Fset.Position(sel.Pos())
			t.atomicOnly[v] = atomicGuard{owner: owner,
				why: fmt.Sprintf("passed to sync/atomic at %s:%d", filepath.Base(at.Filename), at.Line)}
		}
		return true
	})
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

func isCounterTypeName(name string) bool {
	return strings.HasSuffix(name, "Counters") || strings.HasSuffix(name, "Stats")
}

// atomicFieldArgs returns the field selectors a call passes by address to
// a sync/atomic free function (atomic.AddUint64(&s.n, 1)): sanctioned
// atomic accesses of plain words.
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

// plainField resolves a selector to the struct field it selects, if that
// field is not of an atomic type.
func plainField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || isAtomicType(v.Type()) {
		return nil
	}
	return v
}

// isAtomicType accepts sync/atomic types, arrays of them, and named struct
// types composed entirely of such types. The last case admits
// struct-of-atomics values — e.g. the obs histogram, whose buckets, sum,
// and count are all atomic.Int64 — which are exactly as safe for
// concurrent hot-path use as a bare atomic field. The recursion ends: a
// type-checked struct cannot contain itself by value.
func isAtomicType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Array:
		return isAtomicType(t.Elem())
	case *types.Named:
		if isSyncAtomicNamed(t) {
			return true
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || st.NumFields() == 0 {
			return false
		}
		for i := range st.NumFields() {
			if !isAtomicType(st.Field(i).Type()) {
				return false
			}
		}
		return true
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
