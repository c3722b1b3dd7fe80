package lint

// Static ownership & lifetime analysis for paired-resource protocols —
// the machine-checked form of the bufpool / RCU-pin / arena lifecycle
// conventions the zero-copy paths rely on (docs/PERF.md). During delivery
// the NIC — not the host — owns a message's buffer (§5.1 application
// bypass), so every pooled buffer, pin token, and arena entry must follow
// an acquire → {release | ownership transfer} discipline with exactly one
// owner at a time. This pass proves it.
//
// A resource family is declared next to its API:
//
//	//lint:resource bufpool.Get -> Buf.Release
//
// Both names resolve in the declaring package: "Type.Method" or
// "pkgname.Func". Ownership transfer points are annotated on the
// function, interface method, or named function type that takes over:
//
//	//lint:consumes buf       (parameter names, comma-separated)
//	//lint:returns-owned      (the result carries a release obligation)
//
// Four checks (AllChecks) consume the analysis:
//
//   - ownleak: a path to return where an acquired value is neither
//     released nor transferred (including discarded and overwritten
//     results);
//   - ownuseafter: any use of a value after its release or after its
//     ownership was transferred;
//   - owndouble: a second release, or a transfer a deferred release will
//     double-free;
//   - ownescape: a borrowed value (a family-typed parameter without
//     //lint:consumes) released or stored past the call, or an owned
//     value passed to an unannotated function that the call graph proves
//     disposes of it — reported with the PR-5-style call-path frontier
//     and flowing through interface dispatch.
//
// The flow is intraprocedural over bindings (`b := bufpool.Get(n)`,
// `pin := g.Enter(h)`), with interprocedural facts at the frontier:
// consumes annotations inherit from interface methods to every module
// implementation, and unannotated callees are checked by a memoized
// parameter-disposition summary (dispose) over the same call graph the
// facts engine builds.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ownFamily is one declared acquire/release pair.
type ownFamily struct {
	acquire *types.Func
	release *types.Func
	// resType is the TypeName of the acquire result when it is a pointer
	// to a module named type (bufpool.Get -> *Buf); nil when the handle is
	// untrackable by type (an int pin token, a generic *T arena entry) and
	// resources are tracked purely by binding.
	resType *types.TypeName
	// relRecv: the release is a method on the resource type itself
	// (b.Release()) rather than taking the handle as an argument
	// (g.Exit(pin), a.Put(p)).
	relRecv  bool
	acqLabel string
	relLabel string
}

// ownTables holds the resolved annotations plus the memoized
// parameter-disposition summaries.
type ownTables struct {
	prog      *Program
	families  []*ownFamily
	acquires  map[*types.Func]*ownFamily
	releases  map[*types.Func]*ownFamily
	consumes  map[*types.Func][]bool     // per-parameter ownership handoff
	consumesT map[*types.TypeName][]bool // named function types (handler handoff)
	retOwned  map[*types.Func]bool
	diags     []Diagnostic

	disp     map[dispKey]dispRes
	inflight map[dispKey]bool
}

// ownResult caches the pass outcome on the Program so the four checks pay
// for one traversal between them.
type ownResult struct {
	diags []Diagnostic
}

// ownAnalysis runs the ownership pass once: annotation tables, consumes
// inheritance through interface dispatch, then a walk of every function
// body in the analyzed packages.
func (p *Program) ownAnalysis() *ownResult {
	if p.ownRes != nil {
		return p.ownRes
	}
	tbl := buildOwnTables(p)
	if len(tbl.families) > 0 || len(tbl.consumes) > 0 || len(tbl.retOwned) > 0 {
		tbl.inheritConsumes(p.engine())
		p.forEachBody(func(b funcBody) {
			a := &ownFlow{prog: p, pkg: b.pkg, tbl: tbl}
			// A literal's body gets no seeded parameters: captures of
			// tracked values were already treated as ownership transfers by
			// the enclosing flow.
			entry := newOwnState()
			if b.lit == nil {
				a.seedParams(b.decl, entry)
			}
			runFlow(a, b.body, entry)
		})
	}
	p.ownRes = &ownResult{diags: tbl.diags}
	return p.ownRes
}

// inheritConsumes copies //lint:consumes annotations from interface
// methods to every module implementation that lacks its own, so a handoff
// declared once on the interface (transport.Endpoint.SendBuf) covers
// each concrete transport.
func (t *ownTables) inheritConsumes(e *engine) {
	ifaces := make([]*types.Func, 0, len(t.consumes))
	for fn := range t.consumes {
		if isInterfaceMethod(fn) {
			ifaces = append(ifaces, fn)
		}
	}
	sort.Slice(ifaces, func(i, j int) bool { return funcLabel(ifaces[i]) < funcLabel(ifaces[j]) })
	for _, ifn := range ifaces {
		cons := t.consumes[ifn]
		for _, impl := range e.implsOf(ifn) {
			if _, has := t.consumes[impl]; !has {
				t.consumes[impl] = cons
			}
		}
	}
}

// buildOwnTables reads the ownership directives of every loaded package.
// Malformed or unresolvable directives are reported (for analyzed
// packages) under ownleak so they cannot silently disable the pass.
func buildOwnTables(p *Program) *ownTables {
	t := &ownTables{
		prog:      p,
		acquires:  make(map[*types.Func]*ownFamily),
		releases:  make(map[*types.Func]*ownFamily),
		consumes:  make(map[*types.Func][]bool),
		consumesT: make(map[*types.TypeName][]bool),
		retOwned:  make(map[*types.Func]bool),
		disp:      make(map[dispKey]dispRes),
		inflight:  make(map[dispKey]bool),
	}
	report := func(pkg *Package) func(token.Pos, string, ...any) {
		return func(pos token.Pos, format string, args ...any) {
			if p.analyzed(pkg) {
				t.diags = append(t.diags, p.diagf("ownleak", pos, format, args...))
			}
		}
	}
	for _, d := range p.directives("resource") {
		t.addFamily(d.pkg, d.pos, d.args, report(d.pkg))
	}
	for _, pkg := range p.sortedPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					t.collectFuncDirectives(pkg, d, report(pkg))
				case *ast.GenDecl:
					t.collectTypeDirectives(pkg, d, report(pkg))
				}
			}
		}
	}
	return t
}

func (t *ownTables) addFamily(pkg *Package, pos token.Pos, rest string, report func(token.Pos, string, ...any)) {
	fields := strings.Fields(rest)
	if len(fields) != 3 || fields[1] != "->" {
		report(pos, "malformed //lint:resource directive: want \"//lint:resource Acquire -> Release\"")
		return
	}
	acq, err := resolveOwnName(pkg, fields[0])
	if err != nil {
		report(pos, "//lint:resource: %v", err)
		return
	}
	rel, err := resolveOwnName(pkg, fields[2])
	if err != nil {
		report(pos, "//lint:resource: %v", err)
		return
	}
	fam := &ownFamily{
		acquire:  acq,
		release:  rel,
		acqLabel: funcLabel(acq),
		relLabel: funcLabel(rel),
	}
	if sig, ok := acq.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
		if ptr, ok := sig.Results().At(0).Type().(*types.Pointer); ok {
			if n, ok := ptr.Elem().(*types.Named); ok {
				fam.resType = n.Origin().Obj()
			}
		}
	}
	if fam.resType != nil {
		if rn := recvNamed(rel); rn != nil && rn.Origin().Obj() == fam.resType {
			fam.relRecv = true
		}
	}
	t.families = append(t.families, fam)
	t.acquires[acq] = fam
	t.releases[rel] = fam
}

// resolveOwnName resolves "Type.Method" or "pkgname.Func" in the
// directive's own package.
func resolveOwnName(pkg *Package, name string) (*types.Func, error) {
	dot := strings.IndexByte(name, '.')
	if dot <= 0 || dot == len(name)-1 || pkg.Pkg == nil {
		return nil, fmt.Errorf("cannot resolve %q: want Type.Method or pkgname.Func", name)
	}
	x, y := name[:dot], name[dot+1:]
	scope := pkg.Pkg.Scope()
	if tn, ok := scope.Lookup(x).(*types.TypeName); ok {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg.Pkg, y)
		if m, ok := obj.(*types.Func); ok {
			return m.Origin(), nil
		}
		return nil, fmt.Errorf("type %s has no method %s", x, y)
	}
	if x == pkg.Pkg.Name() {
		if fn, ok := scope.Lookup(y).(*types.Func); ok {
			return fn.Origin(), nil
		}
	}
	// Fallback: a unique method named y anywhere in the package.
	var found *types.Func
	for _, tname := range scope.Names() {
		tn, ok := scope.Lookup(tname).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == y {
				if found != nil {
					return nil, fmt.Errorf("%q is ambiguous in package %s", name, pkg.Pkg.Name())
				}
				found = m.Origin()
			}
		}
	}
	if found != nil {
		return found, nil
	}
	return nil, fmt.Errorf("cannot resolve %q in package %s", name, pkg.Pkg.Name())
}

// collectFuncDirectives reads //lint:consumes and //lint:returns-owned
// from a function declaration's doc comment.
func (t *ownTables) collectFuncDirectives(pkg *Package, d *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
	if obj == nil {
		return
	}
	if args, pos, ok := directiveIn(d.Doc, "consumes"); ok {
		if mask, err := consumesMask(d.Type, args); err != nil {
			report(pos, "//lint:consumes: %v", err)
		} else {
			t.consumes[obj.Origin()] = mask
		}
	}
	if _, _, ok := directiveIn(d.Doc, "returns-owned"); ok {
		t.retOwned[obj.Origin()] = true
	}
}

// collectTypeDirectives reads //lint:consumes from interface method docs
// and from named-function-type declarations (the handler-handoff idiom:
// `type BatchHandler func(batch []Delivery)` where invoking the handler
// transfers the batch).
func (t *ownTables) collectTypeDirectives(pkg *Package, d *ast.GenDecl, report func(token.Pos, string, ...any)) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		switch tt := ts.Type.(type) {
		case *ast.InterfaceType:
			for _, m := range tt.Methods.List {
				if len(m.Names) != 1 {
					continue
				}
				doc := m.Doc
				if doc == nil {
					doc = m.Comment
				}
				args, pos, ok := directiveIn(doc, "consumes")
				if !ok {
					continue
				}
				ft, isFT := m.Type.(*ast.FuncType)
				obj, _ := pkg.Info.Defs[m.Names[0]].(*types.Func)
				if !isFT || obj == nil {
					continue
				}
				if mask, err := consumesMask(ft, args); err != nil {
					report(pos, "//lint:consumes: %v", err)
				} else {
					t.consumes[obj.Origin()] = mask
				}
			}
		case *ast.FuncType:
			doc := ts.Doc
			if doc == nil && len(d.Specs) == 1 {
				doc = d.Doc
			}
			args, pos, ok := directiveIn(doc, "consumes")
			if !ok {
				continue
			}
			tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
			if tn == nil {
				continue
			}
			if mask, err := consumesMask(tt, args); err != nil {
				report(pos, "//lint:consumes: %v", err)
			} else {
				t.consumesT[tn] = mask
			}
		}
	}
}

// consumesMask maps the directive's parameter names onto the function
// type's parameter positions.
func consumesMask(ft *ast.FuncType, args string) ([]bool, error) {
	var names []string
	for _, f := range strings.Fields(args) {
		for _, n := range strings.Split(f, ",") {
			if n != "" {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("want parameter names (\"//lint:consumes buf\")")
	}
	var mask []bool
	idx := make(map[string]int)
	i := 0
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			mask = append(mask, false)
			i++
			continue
		}
		for _, id := range field.Names {
			idx[id.Name] = i
			mask = append(mask, false)
			i++
		}
	}
	for _, n := range names {
		pos, ok := idx[n]
		if !ok {
			return nil, fmt.Errorf("no parameter named %q", n)
		}
		mask[pos] = true
	}
	return mask, nil
}

// famForType matches a pointer-to-named type against the declared
// resource families.
func (t *ownTables) famForType(typ types.Type) *ownFamily {
	ptr, ok := typ.(*types.Pointer)
	if !ok {
		return nil
	}
	n, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	obj := n.Origin().Obj()
	for _, f := range t.families {
		if f.resType == obj {
			return f
		}
	}
	return nil
}

// consumedAt reports whether a call argument position hands off ownership
// under a consumes mask (variadic calls collapse onto the last parameter).
func consumedAt(mask []bool, i int, sig *types.Signature) bool {
	if mask == nil {
		return false
	}
	if sig != nil && sig.Variadic() && i >= len(mask)-1 {
		i = len(mask) - 1
	}
	return i >= 0 && i < len(mask) && mask[i]
}

// --- Resource states -------------------------------------------------------

const (
	stOwned    uint8 = iota // must release or transfer before exit
	stBorrowed              // caller owns it; this function must not dispose of it
	stDeferred              // a deferred release covers every path
	stReleased
	stTransferred
	stMaybeOwned // owned on some incoming path, settled on another
	stMaybeSafe  // settled on every path, but differently
	stDead       // already diagnosed on this path; stop cascading
)

func statusSafe(s uint8) bool {
	return s == stDeferred || s == stReleased || s == stTransferred || s == stMaybeSafe
}

func mergeStatus(a, b uint8) uint8 {
	if a == b {
		return a
	}
	if a == stDead || b == stDead {
		return stDead
	}
	aOwn := a == stOwned || a == stMaybeOwned
	bOwn := b == stOwned || b == stMaybeOwned
	if aOwn || bOwn {
		return stMaybeOwned
	}
	return stMaybeSafe
}

// resInfo is one tracked resource (an acquire site or an owned/borrowed
// parameter) within a function.
type resInfo struct {
	fam   *ownFamily
	pos   token.Pos // acquire site (or parameter position)
	name  string
	param bool // seeded from the signature rather than acquired in the body
}

type resState struct {
	s   uint8
	pos token.Pos // where the latest status-changing event happened
}

// ownState is the per-path abstract state: variable bindings plus one
// status slot per resource.
type ownState struct {
	bind map[types.Object]int
	st   []resState
}

func newOwnState() *ownState {
	return &ownState{bind: make(map[types.Object]int)}
}

func (s *ownState) clone() *ownState {
	c := &ownState{bind: make(map[types.Object]int, len(s.bind)), st: make([]resState, len(s.st))}
	for k, v := range s.bind {
		c.bind[k] = v
	}
	copy(c.st, s.st)
	return c
}

// get returns the status slot for resource id, growing the slot table for
// resources first seen on another path.
func (s *ownState) get(id int) resState {
	if id < len(s.st) {
		return s.st[id]
	}
	return resState{s: stDead}
}

func (s *ownState) set(id int, rs resState) {
	for len(s.st) <= id {
		s.st = append(s.st, resState{s: stDead})
	}
	s.st[id] = rs
}

func (a *ownState) merge(b *ownState) *ownState {
	out := a.clone()
	for k, v := range b.bind {
		if _, ok := out.bind[k]; !ok {
			out.bind[k] = v
		}
	}
	for len(out.st) < len(b.st) {
		out.st = append(out.st, resState{s: stDead})
	}
	for i := range b.st {
		cur := out.st[i]
		// A resource acquired on only one incoming path is absent (dead)
		// on the other; its state carries over rather than merging to
		// maybe-owned, since the other path never held it.
		if i >= len(a.st) || a.st[i].s == stDead && b.st[i].s != stDead && cur.pos == 0 {
			out.st[i] = b.st[i]
			continue
		}
		m := mergeStatus(cur.s, b.st[i].s)
		pos := cur.pos
		if pos == 0 {
			pos = b.st[i].pos
		}
		out.st[i] = resState{s: m, pos: pos}
	}
	return out
}

// --- The flow --------------------------------------------------------------

type pendingTransfer struct {
	id         int
	pos        token.Pos
	how        string
	borrowedOK bool
}

// ownFlow is the ownership pass over one function body: the transfer
// functions the structured-flow walker (flow.go) calls. Every way out of
// the body is checked for outstanding ownership obligations.
type ownFlow struct {
	prog *Program
	pkg  *Package
	tbl  *ownTables

	res          []*resInfo
	reportedLeak []bool
	pending      []pendingTransfer
}

func (a *ownFlow) reportf(check string, pos token.Pos, format string, args ...any) {
	a.tbl.diags = append(a.tbl.diags, a.prog.diagf(check, pos, format, args...))
}

func (a *ownFlow) line(pos token.Pos) int { return a.prog.Fset.Position(pos).Line }

func (a *ownFlow) newRes(fam *ownFamily, pos token.Pos, name string, param bool) int {
	a.res = append(a.res, &resInfo{fam: fam, pos: pos, name: name, param: param})
	a.reportedLeak = append(a.reportedLeak, false)
	return len(a.res) - 1
}

// seedParams seeds a declaration's entry state with its parameter
// resources: a //lint:consumes parameter of a family type enters owned
// (this function took over the release obligation); any other
// family-typed parameter enters borrowed — unless the function lives in
// the family's own package, whose internals manage raw handles by
// construction.
func (a *ownFlow) seedParams(fn *ast.FuncDecl, st *ownState) {
	obj, _ := a.pkg.Info.Defs[fn.Name].(*types.Func)
	var mask []bool
	if obj != nil {
		mask = a.tbl.consumes[obj.Origin()]
	}
	i := 0
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			pobj := a.pkg.Info.Defs[name]
			if pobj != nil {
				if fam := a.tbl.famForType(pobj.Type()); fam != nil {
					var sig *types.Signature
					if obj != nil {
						sig, _ = obj.Type().(*types.Signature)
					}
					status := stBorrowed
					if consumedAt(mask, i, sig) {
						status = stOwned
					}
					if fam.acquire.Pkg() != nil && a.pkg.Pkg == fam.acquire.Pkg() {
						// Family-internal code: exempt.
					} else {
						id := a.newRes(fam, name.Pos(), name.Name, true)
						st.bind[pobj] = id
						st.set(id, resState{s: status, pos: name.Pos()})
					}
				}
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
}

// exit fires at an exit point for every resource still carrying an
// ownership obligation.
func (a *ownFlow) exit(at token.Pos, st *ownState) {
	for id, r := range a.res {
		if a.reportedLeak[id] {
			continue
		}
		rs := st.get(id)
		switch rs.s {
		case stOwned:
			a.reportedLeak[id] = true
			what := fmt.Sprintf("%s result %q (acquired at line %d)", r.fam.acqLabel, r.name, a.line(r.pos))
			if r.param {
				what = fmt.Sprintf("consumed parameter %q", r.name)
			}
			a.reportf("ownleak", at, "%s may leak: neither %s nor an ownership transfer on this path",
				what, r.fam.relLabel)
		case stMaybeOwned:
			a.reportedLeak[id] = true
			what := fmt.Sprintf("%s result %q (acquired at line %d)", r.fam.acqLabel, r.name, a.line(r.pos))
			if r.param {
				what = fmt.Sprintf("consumed parameter %q", r.name)
			}
			a.reportf("ownleak", at, "%s may leak: released or transferred on some paths to here but not all",
				what)
		}
	}
}

// --- Status transitions ----------------------------------------------------

func (a *ownFlow) applyRelease(st *ownState, id int, pos token.Pos) {
	r := a.res[id]
	rs := st.get(id)
	switch rs.s {
	case stOwned:
		st.set(id, resState{s: stReleased, pos: pos})
	case stBorrowed:
		a.reportf("ownescape", pos,
			"%q is borrowed (the caller owns it); releasing it here double-frees — annotate the parameter with //lint:consumes to take ownership",
			r.name)
		st.set(id, resState{s: stDead, pos: pos})
	case stDeferred:
		a.reportf("owndouble", pos,
			"%q released here, but the deferred %s at line %d already covers it (double release)",
			r.name, r.fam.relLabel, a.line(rs.pos))
		st.set(id, resState{s: stDead, pos: pos})
	case stReleased:
		a.reportf("owndouble", pos,
			"%q released again (first %s at line %d)", r.name, r.fam.relLabel, a.line(rs.pos))
		st.set(id, resState{s: stDead, pos: pos})
	case stTransferred:
		a.reportf("ownuseafter", pos,
			"%q released after its ownership was transferred at line %d", r.name, a.line(rs.pos))
		st.set(id, resState{s: stDead, pos: pos})
	case stMaybeOwned, stMaybeSafe:
		// Released on the owned path, harmless on the settled one — the
		// settled path is someone else's diagnostic if it was wrong.
		st.set(id, resState{s: stReleased, pos: pos})
	}
}

func (a *ownFlow) applyTransfer(st *ownState, id int, pos token.Pos, how string, borrowedOK bool) {
	r := a.res[id]
	rs := st.get(id)
	switch rs.s {
	case stOwned:
		st.set(id, resState{s: stTransferred, pos: pos})
	case stBorrowed:
		if borrowedOK {
			st.set(id, resState{s: stTransferred, pos: pos})
			return
		}
		a.reportf("ownescape", pos,
			"%q is borrowed (the caller owns it) but is %s here, escaping the call — annotate the parameter with //lint:consumes",
			r.name, how)
		st.set(id, resState{s: stDead, pos: pos})
	case stDeferred:
		if borrowedOK && r.fam.resType == nil {
			// Returning a copyable token (an int pin) whose deferred
			// release covers this frame: the caller gets a value, not the
			// obligation.
			return
		}
		a.reportf("owndouble", pos,
			"ownership of %q is %s, but the deferred %s at line %d will still fire (double release)",
			r.name, how, r.fam.relLabel, a.line(rs.pos))
		st.set(id, resState{s: stDead, pos: pos})
	case stReleased:
		a.reportf("ownuseafter", pos,
			"%q %s after its release at line %d", r.name, how, a.line(rs.pos))
		st.set(id, resState{s: stDead, pos: pos})
	case stTransferred:
		// A second transfer after a transfer is silent: publication idioms
		// legitimately store one entry in several intertwined structures
		// (a linked list and its index both hold the match entry). Reads
		// after a transfer are still reported, via useCheck.
	case stMaybeOwned, stMaybeSafe:
		st.set(id, resState{s: stTransferred, pos: pos})
	}
}

func (a *ownFlow) useCheck(st *ownState, id int, pos token.Pos) {
	r := a.res[id]
	rs := st.get(id)
	switch rs.s {
	case stReleased:
		a.reportf("ownuseafter", pos,
			"use of %q after %s at line %d", r.name, r.fam.relLabel, a.line(rs.pos))
		st.set(id, resState{s: stDead, pos: pos})
	case stTransferred:
		a.reportf("ownuseafter", pos,
			"use of %q after its ownership was transferred at line %d", r.name, a.line(rs.pos))
		st.set(id, resState{s: stDead, pos: pos})
	}
}

// flush applies the ownership transfers collected while scanning the
// current statement. Deferring them to the statement boundary lets
// `Outbound{buf: b, n: b.Len()}` read b in the same expression that
// hands it off.
func (a *ownFlow) flush(st *ownState) {
	for _, pt := range a.pending {
		a.applyTransfer(st, pt.id, pt.pos, pt.how, pt.borrowedOK)
	}
	a.pending = a.pending[:0]
}

func (a *ownFlow) queueTransfer(id int, pos token.Pos, how string, borrowedOK bool) {
	a.pending = append(a.pending, pendingTransfer{id: id, pos: pos, how: how, borrowedOK: borrowedOK})
}

// --- Statements ------------------------------------------------------------

func (a *ownFlow) simple(s ast.Stmt, st *ownState) (*ownState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := a.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					// Assertion failure: the process is going down; do not
					// demand cleanup on panic paths.
					return a.eval(st, call.Args...), true
				}
			}
			if fam := a.acquireFam(call); fam != nil {
				a.reportf("ownleak", s.Pos(),
					"result of %s discarded: the acquired resource leaks (release with %s or bind it)",
					fam.acqLabel, fam.relLabel)
			}
		}
		a.scan(s.X, st)

	case *ast.AssignStmt:
		a.assign(s, st)

	case *ast.IncDecStmt:
		a.scan(s.X, st)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					a.valueSpec(vs, st)
				}
			}
		}

	case *ast.SendStmt:
		a.scan(s.Chan, st)
		a.moveOrScan(st, s.Value, "sent to a channel", false)

	case *ast.DeferStmt:
		a.deferStmt(s, st)

	case *ast.GoStmt:
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			a.captureTransfers(lit, st, "captured by a goroutine closure")
		}
		for _, arg := range s.Call.Args {
			a.moveOrScan(st, arg, "passed to a goroutine", false)
		}

	case *ast.ReturnStmt:
		for _, e := range s.Results {
			// Returning a resource hands it to the caller; returning a
			// borrowed parameter merely passes the loan along.
			a.moveOrScan(st, e, "returned", true)
		}
	}
	a.flush(st)
	return st, false
}

// moveOrScan queues an ownership transfer when e is a tracked binding
// moved whole (sent, returned, passed to a goroutine), and scans it as an
// ordinary expression otherwise.
func (a *ownFlow) moveOrScan(st *ownState, e ast.Expr, how string, borrowedOK bool) {
	if id := a.trackedIdent(st, e); id >= 0 {
		a.queueTransfer(id, e.Pos(), how, borrowedOK)
	} else {
		a.scan(e, st)
	}
}

func (a *ownFlow) eval(st *ownState, exprs ...ast.Expr) *ownState {
	for _, e := range exprs {
		a.scan(e, st)
	}
	a.flush(st)
	return st
}

// waits: parking on a channel moves no ownership.
func (a *ownFlow) waits(ast.Stmt, *ownState) {}

func (a *ownFlow) comm(s ast.Stmt, st *ownState) *ownState {
	st, _ = a.simple(s, st)
	return st
}

// refine recognizes `x == nil` / `x != nil` over a tracked resource: on
// the nil branch the handle holds nothing (family releases are nil-safe
// no-ops), so its obligation is dropped there.
func (a *ownFlow) refine(cond ast.Expr, thenSt, elseSt *ownState) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return
	}
	var x ast.Expr
	if isNilIdent(a.pkg.Info, be.Y) {
		x = be.X
	} else if isNilIdent(a.pkg.Info, be.X) {
		x = be.Y
	} else {
		return
	}
	id := a.trackedIdent(thenSt, x)
	if id < 0 {
		return
	}
	nilSt := thenSt
	if be.Op == token.NEQ {
		nilSt = elseSt
	}
	nilSt.set(id, resState{s: stDead, pos: cond.Pos()})
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// --- Assignments -----------------------------------------------------------

func (a *ownFlow) assign(s *ast.AssignStmt, st *ownState) {
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			a.assignPair(s.Lhs[i], s.Rhs[i], s.Tok == token.DEFINE, st)
		}
		return
	}
	// Multi-value assignment (x, ok := f()): no family acquire returns
	// multiple values, so just scan both sides for uses.
	for _, e := range s.Rhs {
		a.scan(e, st)
	}
	for _, e := range s.Lhs {
		if _, ok := ast.Unparen(e).(*ast.Ident); !ok {
			a.scan(e, st)
		}
	}
}

func (a *ownFlow) valueSpec(vs *ast.ValueSpec, st *ownState) {
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			a.assignPair(name, vs.Values[i], true, st)
		}
	}
}

func (a *ownFlow) assignPair(lhs, rhs ast.Expr, define bool, st *ownState) {
	lhsIdent, _ := ast.Unparen(lhs).(*ast.Ident)

	// Acquire (or returns-owned) call on the right: a new obligation.
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if fam := a.acquireFam(call); fam != nil {
			// The call's receiver and arguments are ordinary uses.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				a.scan(sel.X, st)
			}
			for _, arg := range call.Args {
				a.scan(arg, st)
			}
			if lhsIdent == nil {
				// Born directly into a field/slot: ownership lives in the
				// containing structure; untrackable here, so scan and move on.
				a.scan(lhs, st)
				return
			}
			if lhsIdent.Name == "_" {
				a.reportf("ownleak", rhs.Pos(),
					"result of %s discarded: the acquired resource leaks (release with %s or bind it)",
					fam.acqLabel, fam.relLabel)
				return
			}
			obj := a.lhsObj(lhsIdent, define)
			if obj == nil || a.isGlobal(obj) {
				// Acquired straight into a package-level variable: the
				// obligation lives beyond this frame; untrackable here.
				return
			}
			a.checkOverwrite(st, obj, rhs.Pos())
			id := a.newRes(fam, rhs.Pos(), lhsIdent.Name, false)
			st.bind[obj] = id
			st.set(id, resState{s: stOwned, pos: rhs.Pos()})
			return
		}
	}

	// Tracked value on the right: alias or store.
	if id := a.trackedIdent(st, rhs); id >= 0 {
		if lhsIdent != nil {
			obj := a.lhsObj(lhsIdent, define)
			if obj == nil {
				return
			}
			if a.isGlobal(obj) {
				// Publication to a package-level variable: the ownership
				// leaves this frame.
				a.queueTransfer(id, rhs.Pos(), "stored in a package-level variable", false)
				return
			}
			a.checkOverwrite(st, obj, rhs.Pos())
			st.bind[obj] = id
			return
		}
		// Stored into a field, slice slot, map, or dereference: the
		// containing structure takes over.
		a.scan(lhs, st)
		a.queueTransfer(id, rhs.Pos(), "stored", false)
		return
	}

	// Plain assignment: scan the right side; a tracked left-hand binding
	// is overwritten.
	a.scan(rhs, st)
	if lhsIdent != nil {
		if obj := a.lhsObj(lhsIdent, define); obj != nil {
			a.checkOverwrite(st, obj, rhs.Pos())
			delete(st.bind, obj)
		}
		return
	}
	a.scan(lhs, st)
}

// isGlobal reports whether an object is a package-level variable.
func (a *ownFlow) isGlobal(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

func (a *ownFlow) lhsObj(id *ast.Ident, define bool) types.Object {
	if id.Name == "_" {
		return nil
	}
	if define {
		if obj := a.pkg.Info.Defs[id]; obj != nil {
			return obj
		}
	}
	return a.pkg.Info.Uses[id]
}

// checkOverwrite fires when a binding still carrying an obligation is
// rebound: the old value becomes unreachable un-released.
func (a *ownFlow) checkOverwrite(st *ownState, obj types.Object, pos token.Pos) {
	id, ok := st.bind[obj]
	if !ok {
		return
	}
	rs := st.get(id)
	if rs.s == stOwned || rs.s == stMaybeOwned {
		r := a.res[id]
		if !a.reportedLeak[id] {
			a.reportedLeak[id] = true
			a.reportf("ownleak", pos,
				"%q rebound while it still owns the %s result from line %d: the old value leaks",
				r.name, r.fam.acqLabel, a.line(r.pos))
		}
		st.set(id, resState{s: stDead, pos: pos})
	}
}

// --- Defer -----------------------------------------------------------------

func (a *ownFlow) deferStmt(s *ast.DeferStmt, st *ownState) {
	call := s.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// defer func() { ... b.Release() ... }(): treat captures as
		// settling the obligation (the deferred body runs on every path).
		a.captureTransfers(lit, st, "captured by a deferred closure")
		return
	}
	fn := calleeOf(a.pkg.Info, call)
	// defer b.Release() — receiver-form release.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id := a.trackedIdent(st, sel.X); id >= 0 {
			if fn != nil && a.tbl.releases[fn] == a.res[id].fam && a.res[id].fam.relRecv {
				a.applyDeferredRelease(st, id, s.Pos())
				for _, arg := range call.Args {
					a.scan(arg, st)
				}
				return
			}
		} else {
			a.scan(sel.X, st)
		}
	}
	// defer g.Exit(pin) / defer a.Put(p) — argument-form release, and
	// deferred handoffs to consuming callees.
	var mask []bool
	var sig *types.Signature
	if fn != nil {
		mask = a.tbl.consumes[fn]
		sig, _ = fn.Type().(*types.Signature)
	}
	for i, arg := range call.Args {
		id := a.trackedIdent(st, arg)
		if id < 0 {
			a.scan(arg, st)
			continue
		}
		switch {
		case fn != nil && a.tbl.releases[fn] == a.res[id].fam && !a.res[id].fam.relRecv:
			a.applyDeferredRelease(st, id, s.Pos())
		case consumedAt(mask, i, sig):
			a.applyDeferredRelease(st, id, s.Pos())
		default:
			a.useCheck(st, id, arg.Pos())
		}
	}
}

func (a *ownFlow) applyDeferredRelease(st *ownState, id int, pos token.Pos) {
	r := a.res[id]
	rs := st.get(id)
	switch rs.s {
	case stOwned, stMaybeOwned, stMaybeSafe:
		st.set(id, resState{s: stDeferred, pos: pos})
	case stBorrowed:
		a.reportf("ownescape", pos,
			"%q is borrowed (the caller owns it); deferring its release double-frees — annotate the parameter with //lint:consumes",
			r.name)
		st.set(id, resState{s: stDead, pos: pos})
	case stDeferred:
		a.reportf("owndouble", pos,
			"%q already has a deferred %s at line %d (double release)", r.name, r.fam.relLabel, a.line(rs.pos))
		st.set(id, resState{s: stDead, pos: pos})
	case stReleased:
		a.reportf("owndouble", pos,
			"deferred release of %q after %s at line %d (double release)", r.name, r.fam.relLabel, a.line(rs.pos))
		st.set(id, resState{s: stDead, pos: pos})
	case stTransferred:
		a.reportf("ownuseafter", pos,
			"deferred release of %q after its ownership was transferred at line %d", r.name, a.line(rs.pos))
		st.set(id, resState{s: stDead, pos: pos})
	}
}

// --- Expressions -----------------------------------------------------------

// trackedIdent resolves an expression to a tracked resource binding, or
// -1 when it is not a plain bound identifier.
func (a *ownFlow) trackedIdent(st *ownState, e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	obj := a.pkg.Info.Uses[id]
	if obj == nil {
		return -1
	}
	if rid, ok := st.bind[obj]; ok {
		return rid
	}
	return -1
}

// acquireFam matches a call against the declared acquire functions and
// //lint:returns-owned annotations; the latter must return a family type
// to produce a trackable obligation.
func (a *ownFlow) acquireFam(call *ast.CallExpr) *ownFamily {
	fn := calleeOf(a.pkg.Info, call)
	if fn == nil {
		return nil
	}
	if fam, ok := a.tbl.acquires[fn]; ok {
		return fam
	}
	if a.tbl.retOwned[fn] {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
			return a.tbl.famForType(sig.Results().At(0).Type())
		}
	}
	return nil
}

// captureTransfers treats every tracked binding referenced inside a
// function literal as transferred to it: the closure may release or keep
// the value on its own schedule, which its separate analysis pass cannot
// relate to this frame.
func (a *ownFlow) captureTransfers(lit *ast.FuncLit, st *ownState, how string) {
	seen := make(map[int]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := a.pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if rid, ok := st.bind[obj]; ok && !seen[rid] {
			seen[rid] = true
			a.queueTransfer(rid, id.Pos(), how, false)
		}
		return true
	})
}

// scan walks an expression for resource uses, releases, and transfers in
// syntactic order.
func (a *ownFlow) scan(e ast.Expr, st *ownState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			a.captureTransfers(n, st, "captured by a closure")
			return false
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if id := a.trackedIdent(st, v); id >= 0 {
					a.queueTransfer(id, v.Pos(), "stored in a composite literal", false)
				}
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id := a.trackedIdent(st, n.X); id >= 0 {
					a.queueTransfer(id, n.Pos(), "address-taken", false)
					return false
				}
			}
		case *ast.Ident:
			obj := a.pkg.Info.Uses[n]
			if obj != nil {
				if rid, ok := st.bind[obj]; ok {
					a.useCheck(st, rid, n.Pos())
				}
			}
		case *ast.CallExpr:
			a.call(n, st)
			return false
		}
		return true
	})
}

// call processes one call expression: releases, annotated handoffs, and
// the disposition frontier for unannotated callees.
func (a *ownFlow) call(c *ast.CallExpr, st *ownState) {
	// Type conversions move the value, not the obligation — but
	// unsafe.Pointer(p) and friends hide the handle from further
	// tracking, so treat a converted resource as handed off.
	if tv, ok := a.pkg.Info.Types[c.Fun]; ok && tv.IsType() {
		for _, arg := range c.Args {
			if id := a.trackedIdent(st, arg); id >= 0 {
				a.queueTransfer(id, arg.Pos(), "converted to another type", false)
			} else {
				a.scan(arg, st)
			}
		}
		return
	}
	// Builtins: append stores its elements; everything else just reads.
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
		if _, isBuiltin := a.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			for i, arg := range c.Args {
				if id.Name == "append" && i > 0 {
					if rid := a.trackedIdent(st, arg); rid >= 0 {
						a.queueTransfer(rid, arg.Pos(), "appended to a slice", false)
						continue
					}
				}
				a.scan(arg, st)
			}
			return
		}
	}

	fn := calleeOf(a.pkg.Info, c)

	// Receiver: b.Release() is the release; any other method call on a
	// tracked resource is a use.
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
		if id := a.trackedIdent(st, sel.X); id >= 0 {
			if fn != nil && a.tbl.releases[fn] == a.res[id].fam && a.res[id].fam.relRecv {
				a.applyRelease(st, id, c.Pos())
			} else {
				a.useCheck(st, id, sel.X.Pos())
			}
		} else {
			a.scan(sel.X, st)
		}
	}

	var mask []bool
	var sig *types.Signature
	if fn != nil {
		mask = a.tbl.consumes[fn]
		sig, _ = fn.Type().(*types.Signature)
	} else if tv, ok := a.pkg.Info.Types[c.Fun]; ok {
		// A call through a value of a named function type: the handoff
		// contract lives on the type (the BatchHandler idiom).
		if named, ok := tv.Type.(*types.Named); ok {
			mask = a.tbl.consumesT[named.Origin().Obj()]
			sig, _ = named.Underlying().(*types.Signature)
		}
	}

	for i, arg := range c.Args {
		id := a.trackedIdent(st, arg)
		if id < 0 {
			a.scan(arg, st)
			continue
		}
		fam := a.res[id].fam
		switch {
		case fn != nil && a.tbl.releases[fn] == fam && !fam.relRecv:
			a.applyRelease(st, id, c.Pos())
		case consumedAt(mask, i, sig):
			label := "the callee"
			if fn != nil {
				label = funcLabel(fn)
			}
			a.queueTransfer(id, arg.Pos(), "handed to "+label+" (//lint:consumes)", false)
		case fn == nil:
			// Unknown function value with no type-level contract: assume
			// the callee takes over rather than cascade false reports.
			a.queueTransfer(id, arg.Pos(), "passed to a function value", false)
		case isInterfaceMethod(fn):
			a.frontier(c, st, id, i, fn, true)
		case a.prog.funcSources()[fn] != nil:
			a.frontier(c, st, id, i, fn, false)
		default:
			// Stdlib or bodyless callee: a read-only use (copy, len, log).
			a.useCheck(st, id, arg.Pos())
		}
	}
}

// frontier checks an unannotated module callee (or every implementation
// behind an interface method) for disposing of the argument, and reports
// the call path when it does: the fix is a //lint:consumes annotation at
// the callee, making the handoff part of the checked contract.
func (a *ownFlow) frontier(c *ast.CallExpr, st *ownState, id, argIdx int, fn *types.Func, dynamic bool) {
	r := a.res[id]
	var d dispRes
	var via string
	if dynamic {
		for _, impl := range a.prog.engine().implsOf(fn) {
			dr := a.tbl.dispose(impl, argIdx, r.fam)
			if dr.disposes {
				d = dr
				via = "dynamic call " + funcLabel(fn) + " (implementation " + funcLabel(impl) + ")"
				break
			}
		}
	} else {
		d = a.tbl.dispose(fn, argIdx, r.fam)
		via = funcLabel(fn)
	}
	if !d.disposes {
		a.useCheck(st, id, c.Pos())
		return
	}
	what := d.what
	if len(d.chain) > 0 {
		what += " via " + strings.Join(d.chain, " -> ")
	}
	rs := st.get(id)
	if rs.s == stBorrowed {
		a.reportf("ownescape", c.Pos(),
			"%q is borrowed (the caller owns it) but %s %s — annotate that parameter with //lint:consumes",
			r.name, via, what)
	} else if rs.s == stOwned || rs.s == stMaybeOwned {
		a.reportf("ownescape", c.Pos(),
			"%q handed to %s, which %s without a //lint:consumes annotation — annotate that parameter so the transfer is part of the checked contract",
			r.name, via, what)
	}
	// Either way the callee took it; treat as transferred to stop cascades.
	a.applyTransfer(st, id, c.Pos(), "handed to "+via, true)
}

// --- Parameter-disposition summaries ---------------------------------------

type dispKey struct {
	fn  *types.Func
	idx int
}

type dispRes struct {
	disposes bool
	what     string
	chain    []string
}

// dispose reports whether fn's idx-th parameter is released, consumed, or
// stored beyond the call on some path through fn (transitively, cycles
// cut). It is the ownership analogue of the facts engine's may-block
// summaries: conservative and memoized.
func (t *ownTables) dispose(fn *types.Func, idx int, fam *ownFamily) dispRes {
	key := dispKey{fn: fn, idx: idx}
	if r, ok := t.disp[key]; ok {
		return r
	}
	if t.inflight[key] {
		return dispRes{}
	}
	t.inflight[key] = true
	r := t.disposeScan(fn, idx, fam)
	delete(t.inflight, key)
	t.disp[key] = r
	return r
}

func (t *ownTables) disposeScan(fn *types.Func, idx int, fam *ownFamily) dispRes {
	src := t.prog.funcSources()[fn]
	if src == nil {
		return dispRes{}
	}
	obj := paramObjAt(src, idx)
	if obj == nil {
		return dispRes{}
	}
	info := src.pkg.Info
	isParam := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == obj
	}
	var out dispRes
	found := func(r dispRes) { out = r }
	ast.Inspect(src.decl.Body, func(n ast.Node) bool {
		if out.disposes {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			captures := false
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					captures = true
				}
				return !captures
			})
			if captures {
				found(dispRes{disposes: true, what: "captures it in a closure"})
			}
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					if !isParam(n.Rhs[i]) {
						continue
					}
					if _, isIdent := ast.Unparen(n.Lhs[i]).(*ast.Ident); !isIdent {
						found(dispRes{disposes: true, what: "stores it beyond the call"})
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isParam(v) {
					found(dispRes{disposes: true, what: "stores it beyond the call"})
				}
			}
		case *ast.SendStmt:
			if isParam(n.Value) {
				found(dispRes{disposes: true, what: "sends it to a channel"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && isParam(n.X) {
				found(dispRes{disposes: true, what: "stores it beyond the call"})
			}
		case *ast.CallExpr:
			if r := t.disposeCall(n, info, isParam, fam); r.disposes {
				found(r)
			}
		}
		return !out.disposes
	})
	return out
}

// disposeCall classifies one call inside a disposition scan.
func (t *ownTables) disposeCall(c *ast.CallExpr, info *types.Info, isParam func(ast.Expr) bool, fam *ownFamily) dispRes {
	if tv, ok := info.Types[c.Fun]; ok && tv.IsType() {
		return dispRes{} // conversion of the param: value copy, not disposal
	}
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				for i, arg := range c.Args {
					if i > 0 && isParam(arg) {
						return dispRes{disposes: true, what: "stores it beyond the call"}
					}
				}
			}
			return dispRes{}
		}
	}
	fn := calleeOf(info, c)
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && isParam(sel.X) {
		if fn != nil && t.releases[fn] == fam && fam.relRecv {
			return dispRes{disposes: true, what: "releases it (" + fam.relLabel + ")"}
		}
	}
	var mask []bool
	var sig *types.Signature
	if fn != nil {
		mask = t.consumes[fn]
		sig, _ = fn.Type().(*types.Signature)
	}
	for i, arg := range c.Args {
		if !isParam(arg) {
			continue
		}
		if fn != nil && t.releases[fn] == fam && !fam.relRecv {
			return dispRes{disposes: true, what: "releases it (" + fam.relLabel + ")"}
		}
		if consumedAt(mask, i, sig) {
			return dispRes{disposes: true, what: "hands ownership to " + funcLabel(fn)}
		}
		if fn == nil {
			return dispRes{}
		}
		if isInterfaceMethod(fn) {
			for _, impl := range t.prog.engine().implsOf(fn) {
				if r := t.dispose(impl, i, fam); r.disposes {
					return dispRes{disposes: true, what: r.what,
						chain: append([]string{funcLabel(fn) + " -> " + funcLabel(impl)}, r.chain...)}
				}
			}
			continue
		}
		if t.prog.funcSources()[fn] != nil {
			if r := t.dispose(fn, i, fam); r.disposes {
				return dispRes{disposes: true, what: r.what,
					chain: append([]string{funcLabel(fn)}, r.chain...)}
			}
		}
	}
	return dispRes{}
}

// paramObjAt returns the types object of a declaration's idx-th
// parameter (receivers excluded; unnamed and blank parameters yield nil).
func paramObjAt(src *funcSource, idx int) types.Object {
	i := 0
	for _, field := range src.decl.Type.Params.List {
		if len(field.Names) == 0 {
			if i == idx {
				return nil
			}
			i++
			continue
		}
		for _, name := range field.Names {
			if i == idx {
				if name.Name == "_" {
					return nil
				}
				return src.pkg.Info.Defs[name]
			}
			i++
		}
	}
	return nil
}
