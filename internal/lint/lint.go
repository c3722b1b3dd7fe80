// Package lint implements portalsvet, the repo's custom static-analysis
// suite. It enforces the architectural invariants that encode the paper's
// defining property — application bypass (§5.1: data flows "with virtually
// no application processing") — as concurrency discipline: the delivery
// path never blocks, counters are atomics, locks follow one declared
// hierarchy and guard what they say they guard. (That pooled buffers, RCU
// pins and arena entries come back is the tests' buffer ledger's claim,
// internal/bufpool/pooltest, not a check here.) AllChecks is the table of
// checks, one line each; docs/LINT.md describes them.
//
// Three pieces are shared between checks. The facts engine (summary.go,
// callgraph.go) builds a conservative call graph over every loaded
// package — static calls, interface calls resolved through module method
// sets, go/defer edges — and computes per-function may-block and
// locks-acquired summaries by fixpoint propagation through strongly
// connected components; reach.go reports what the delivery path reaches
// over it. The structured-flow walker (flow.go) is the one abstract
// interpreter over Go statements; the lock pass (lockdiscipline.go) is a
// transfer function for it.
//
// The implementation uses only the Go standard library (go/ast, go/parser,
// go/token, go/types); the module has zero external dependencies and must
// stay that way.
//
// Findings can be suppressed with a directive on the offending line or the
// line directly above it:
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one finding, printed as "file:line: [check] message".
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Check is a named, individually runnable and suppressible analysis.
type Check interface {
	Name() string
	Doc() string
	Run(p *Program) []Diagnostic
}

// check is one row of the registry: a named analysis and where its
// findings come from. Checks that share a pass (the lock pass) name the
// same run function; Run keeps the row's own.
type check struct {
	name, doc string
	run       func(*Program) []Diagnostic
}

func (c check) Name() string { return c.name }
func (c check) Doc() string  { return c.doc }

func (c check) Run(p *Program) []Diagnostic {
	var out []Diagnostic
	for _, d := range c.run(p) {
		if d.Check == c.name {
			out = append(out, d)
		}
	}
	return out
}

// AllChecks returns every check in its canonical order.
func AllChecks() []Check {
	fromLockPass := func(p *Program) []Diagnostic { return p.lockAnalysis().diags }
	return []Check{
		check{"bypassviolation", "delivery paths (internal/nicsim, internal/rtscts on* handlers) must never block", (*Program).reach},
		check{"lockdiscipline", "no blocking while a mutex is held; every Lock has an Unlock on all paths", fromLockPass},
		check{"lockorder", "every lock-acquisition edge is declared by //lint:lockrank and respects the DAG", lockOrder},
		check{"checkederr", "error results of the portals API and internal/core are never discarded", checkedErr},
		check{"guardedby", "every access to a //lint:guardedby field holds a declared lock; counter fields and fields used with sync/atomic are never accessed plainly", fromLockPass},
		// staleignore exists here to be named and documented; the detection
		// itself runs inside Run (after suppression filtering, so a stale
		// directive cannot suppress its own report) whenever any checks run.
		check{"staleignore", "//lint:ignore directives whose check fires nothing on their line are deleted, not kept",
			func(*Program) []Diagnostic { return nil }},
	}
}

// Package is one type-checked package of the analyzed module.
type Package struct {
	Path  string
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
}

// Program is the loaded module: the packages selected for analysis plus
// every local dependency (needed for the cross-package call graph).
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	// ModuleRoot is the filesystem root of the module ("" for in-memory
	// fixture programs); findings are reported relative to it.
	ModuleRoot string
	// Packages are the packages diagnostics are reported for.
	Packages []*Package
	// All maps import path to every loaded local package, Packages included.
	All map[string]*Package

	// Memoised by the accessor of the same name.
	funcs      map[*types.Func]*funcSource
	eng        *engine
	lockRes    *lockResult
	dirs       map[string][]directive
	isAnalyzed map[*Package]bool
}

// funcSource is the body of a module function, for call-graph traversal.
type funcSource struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// Run executes the given checks (all of them if checks is nil), filters
// suppressed findings, and returns the rest sorted by position. Malformed
// suppression directives and stale suppressions (a directive whose check
// produced nothing on its line — the staleignore check) are appended as
// their own diagnostics after filtering, so neither can be suppressed.
func (p *Program) Run(checks []Check) []Diagnostic {
	if checks == nil {
		checks = AllChecks()
	}
	ran := make(map[string]bool, len(checks))
	var diags []Diagnostic
	for _, c := range checks {
		ran[c.Name()] = true
		diags = append(diags, c.Run(p)...)
	}
	sup, bad := p.suppressions()
	kept := diags[:0]
	for _, d := range diags {
		if !sup.covers(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, bad...)
	// A package-subset run (some loaded packages outside the analyzed
	// selection) sees incomplete cross-package facts — an interface call may
	// resolve to nothing because its implementations weren't selected — so
	// only a whole-module run can judge whether a suppression is dead.
	if len(p.Packages) == len(p.All) {
		kept = append(kept, sup.stale(ran)...)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return kept
}

// suppression is one well-formed //lint:ignore directive, tracking which
// of its named checks actually matched a finding this run.
type suppression struct {
	pos      token.Position
	names    []string
	used     []bool
	analyzed bool // directive sits in a package under analysis
}

// suppressionSet indexes //lint:ignore directives by file and line.
type suppressionSet struct {
	byLine map[string]map[int][]*suppression
	all    []*suppression // in deterministic (path, file, offset) order
}

func (s *suppressionSet) covers(d Diagnostic) bool {
	lines := s.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	// A directive suppresses findings on its own line and the line below
	// (i.e. it may trail the statement or sit directly above it).
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, sup := range lines[line] {
			for i, name := range sup.names {
				if name == d.Check {
					sup.used[i] = true
					return true
				}
			}
		}
	}
	return false
}

// stale reports, for every directive in an analyzed package, each named
// check that ran but suppressed nothing on that line — the directive is
// dead weight and must be deleted. A name no check owns (a typo, or
// "staleignore" itself) is always stale. Checks that did not run this
// invocation are left alone: a subset run cannot judge their directives.
// (The caller applies the same principle to package subsets: stale is only
// consulted when every loaded package was analyzed.)
func (s *suppressionSet) stale(ran map[string]bool) []Diagnostic {
	known := make(map[string]bool)
	for _, c := range AllChecks() {
		known[c.Name()] = true
	}
	var out []Diagnostic
	for _, sup := range s.all {
		if !sup.analyzed {
			continue
		}
		for i, name := range sup.names {
			if sup.used[i] {
				continue
			}
			if known[name] && !ran[name] {
				continue
			}
			msg := "suppression for " + name + " matches no finding on this line; delete the stale //lint:ignore"
			if !known[name] {
				msg = "suppression names unknown check " + strconv.Quote(name) + "; delete the stale //lint:ignore"
			}
			out = append(out, Diagnostic{Pos: sup.pos, Check: "staleignore", Message: msg})
		}
	}
	return out
}

// diagf builds one finding.
func (p *Program) diagf(check string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(pos), Check: check, Message: fmt.Sprintf(format, args...)}
}

// analyzed reports whether pkg is one diagnostics are reported for, rather
// than a dependency loaded for the cross-package call graph. Annotations
// apply module-wide wherever they sit; a malformed one is reported only
// in an analyzed package.
func (p *Program) analyzed(pkg *Package) bool {
	if p.isAnalyzed == nil {
		p.isAnalyzed = make(map[*Package]bool, len(p.Packages))
		for _, pkg := range p.Packages {
			p.isAnalyzed[pkg] = true
		}
	}
	return p.isAnalyzed[pkg]
}

// sortedPackages returns every loaded package in import-path order, the
// order every whole-module scan uses so output is deterministic.
func (p *Program) sortedPackages() []*Package {
	pkgs := make([]*Package, 0, len(p.All))
	for _, pkg := range p.All {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs
}

// directive is one `//lint:<name> <args>` comment.
type directive struct {
	args string
	pos  token.Pos
	pkg  *Package
}

// parseDirective splits a //lint: comment into its name and argument
// text. The name is a complete token: "//lint:ignore foo" is an ignore
// directive, "//lint:ignoreXyz" is not.
func parseDirective(text string) (name, args string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//lint:")
	if !ok {
		return "", "", false
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], rest[i:], true
	}
	return rest, "", true
}

// directives returns every directive of the given name in the loaded
// module, in package, file and source order. One scan of the comments
// serves every name: the directives that stand alone (ignore, lockrank,
// resource) are read from here, the ones attached to a declaration
// through directiveIn.
func (p *Program) directives(name string) []directive {
	if p.dirs == nil {
		p.dirs = make(map[string][]directive)
		for _, pkg := range p.sortedPackages() {
			for _, f := range pkg.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						if name, args, ok := parseDirective(c.Text); ok {
							p.dirs[name] = append(p.dirs[name], directive{args: args, pos: c.Pos(), pkg: pkg})
						}
					}
				}
			}
		}
	}
	return p.dirs[name]
}

// directiveIn returns the first directive of the given name within a
// declaration's comment group.
func directiveIn(doc *ast.CommentGroup, name string) (args string, pos token.Pos, ok bool) {
	if doc != nil {
		for _, c := range doc.List {
			if n, args, ok := parseDirective(c.Text); ok && n == name {
				return args, c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// suppressions collects the //lint:ignore directives. The suppression
// set covers all packages (a finding reached from an analyzed root may sit
// in a dependency package); malformed directives are only reported for the
// packages under analysis.
func (p *Program) suppressions() (*suppressionSet, []Diagnostic) {
	set := &suppressionSet{byLine: make(map[string]map[int][]*suppression)}
	var bad []Diagnostic
	for _, d := range p.directives("ignore") {
		pos := p.Fset.Position(d.pos)
		report := func(msg string) {
			if p.analyzed(d.pkg) {
				bad = append(bad, Diagnostic{Pos: pos, Check: "badsuppress", Message: msg})
			}
		}
		fields := strings.Fields(d.args)
		if len(fields) < 2 {
			report("malformed //lint:ignore directive: want \"//lint:ignore check reason\"")
			continue
		}
		names := strings.Split(fields[0], ",")
		if slices.Contains(names, "") {
			report("malformed //lint:ignore directive: empty check name in " + strconv.Quote(fields[0]))
			continue
		}
		sup := &suppression{
			pos:      pos,
			names:    names,
			used:     make([]bool, len(names)),
			analyzed: p.analyzed(d.pkg),
		}
		set.all = append(set.all, sup)
		m := set.byLine[pos.Filename]
		if m == nil {
			m = make(map[int][]*suppression)
			set.byLine[pos.Filename] = m
		}
		m[pos.Line] = append(m[pos.Line], sup)
	}
	return set, bad
}

// funcSources lazily indexes every function declaration with a body across
// all loaded local packages, keyed by its types object.
func (p *Program) funcSources() map[*types.Func]*funcSource {
	if p.funcs != nil {
		return p.funcs
	}
	p.funcs = make(map[*types.Func]*funcSource)
	for _, pkg := range p.All {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.funcs[obj] = &funcSource{pkg: pkg, decl: fd}
				}
			}
		}
	}
	return p.funcs
}

// calleeOf resolves a call expression to its static callee, or nil for
// dynamic calls (function values, interface methods) and conversions.
// Instantiated generic functions/methods are normalized to their generic
// origin so they resolve against funcSources.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	case *ast.IndexExpr: // explicit instantiation: f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ = info.Uses[id].(*types.Func)
		}
	}
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}

// isInterfaceMethod reports whether fn is declared on an interface type
// (a dynamically dispatched call with no body of its own).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// pkgPathOf returns the import path of a function's package ("" for
// builtins).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvNamed returns the named type of a method's receiver (through one
// pointer), or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
