package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Load parses and type-checks the module rooted at or above dir.
//
// Patterns name what to analyze: "./..." (everything under dir) or
// individual package directories ("./internal/core"). Dependencies of the
// selected packages that live in the same module are loaded too — checks
// traverse them — but diagnostics are only reported for the selection.
//
// Only the standard library is used: module-local imports are resolved by
// walking the module tree, everything else through the toolchain's compiled
// export data (stdImport). Test files (_test.go) are not analyzed.
func Load(dir string, patterns []string) (*Program, error) {
	modRoot, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		modPath: modPath,
		modRoot: modRoot,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		files: func(path string) (map[string][]byte, error) {
			return readPackageDir(filepath.Join(modRoot, strings.TrimPrefix(path, modPath)))
		},
	}
	var roots []string
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := walkPackageDirs(modRoot)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				roots = append(roots, importPathFor(modRoot, modPath, d))
			}
		default:
			abs, err := filepath.Abs(filepath.Join(dir, pat))
			if err != nil {
				return nil, err
			}
			roots = append(roots, importPathFor(modRoot, modPath, abs))
		}
	}
	l.prefetch(roots)
	return l.program(roots)
}

// LoadSource type-checks an in-memory module, for the analyzer's own
// tests: pkgs maps import path -> file name -> source. Every package in
// pkgs is analyzed.
func LoadSource(modPath string, pkgs map[string]map[string]string) (*Program, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		files: func(path string) (map[string][]byte, error) {
			src, ok := pkgs[path]
			if !ok {
				return nil, fmt.Errorf("no such fixture package %q", path)
			}
			out := make(map[string][]byte, len(src))
			for name, s := range src {
				out[name] = []byte(s)
			}
			return out, nil
		},
	}
	roots := make([]string, 0, len(pkgs))
	for path := range pkgs {
		roots = append(roots, path)
	}
	sort.Strings(roots)
	return l.program(roots)
}

// loader resolves imports: module-local packages through the files hook,
// everything else through the shared standard-library importer.
type loader struct {
	fset      *token.FileSet
	modPath   string
	modRoot   string
	files     func(importPath string) (map[string][]byte, error)
	pkgs      map[string]*Package
	loading   map[string]bool
	preparsed map[string]*parsedPkg
	errs      []error
}

// parsedPkg is the parse-only half of loading one package.
type parsedPkg struct {
	files []*ast.File
	err   error
}

// stdImports is the one standard-library importer of the process, shared
// by every Load and LoadSource: a gc importer reading the compiled export
// data the toolchain keeps in its build cache, located by one
// `go list -export std` (which also builds whatever is missing). Each
// package is read once, in microseconds, where type-checking the library
// from source took seconds. It has its own FileSet — stdlib positions are
// never printed in diagnostics — and a mutex: the gc importer is not
// concurrency-safe.
var stdImports struct {
	mu  sync.Mutex
	imp types.Importer
	err error
}

func stdImport(path string) (*types.Package, error) {
	stdImports.mu.Lock()
	defer stdImports.mu.Unlock()
	if stdImports.imp == nil && stdImports.err == nil {
		stdImports.imp, stdImports.err = exportImporter()
	}
	if stdImports.err != nil {
		return nil, stdImports.err
	}
	return stdImports.imp.Import(path)
}

// exportImporter asks the toolchain where the export data of every
// standard-library package is and returns a gc importer that reads it.
func exportImporter() (types.Importer, error) {
	out, err := exec.Command("go", "list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}", "std").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			err = fmt.Errorf("%v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list -export std: %v", err)
	}
	files := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			files[path] = file
		}
	}
	return importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}), nil
}

func (l *loader) program(roots []string) (*Program, error) {
	seen := make(map[string]bool)
	var selected []*Package
	for _, path := range roots {
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		selected = append(selected, pkg)
	}
	if len(l.errs) > 0 {
		msgs := make([]string, 0, len(l.errs))
		for _, e := range l.errs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("type errors:\n%s", strings.Join(msgs, "\n"))
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i].Path < selected[j].Path })
	return &Program{
		Fset:       l.fset,
		ModulePath: l.modPath,
		ModuleRoot: l.modRoot,
		Packages:   selected,
		All:        l.pkgs,
	}, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return stdImport(path)
}

// prefetch parses the root packages concurrently before the sequential
// type-checking phase, bounded by GOMAXPROCS. token.FileSet is safe for
// concurrent use, so the parsed files land directly in the shared set;
// type-checking stays sequential: a package is checked after its imports,
// which load() reaches depth-first through maps one goroutine owns. On a
// multi-core host this overlaps the parse+read I/O of a "./..." load;
// load() falls back to parsing inline for packages reached only as
// dependencies.
func (l *loader) prefetch(roots []string) {
	uniq := make([]string, 0, len(roots))
	seen := make(map[string]bool, len(roots))
	for _, path := range roots {
		if !seen[path] {
			seen[path] = true
			uniq = append(uniq, path)
		}
	}
	l.preparsed = make(map[string]*parsedPkg, len(uniq))
	procs := runtime.GOMAXPROCS(0)
	if procs < 1 {
		procs = 1
	}
	if procs == 1 || len(uniq) <= 1 {
		return // nothing to overlap; parse lazily as before
	}
	var mu sync.Mutex
	sem := make(chan struct{}, procs)
	var wg sync.WaitGroup
	for _, path := range uniq {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pp := l.parsePackage(path)
			mu.Lock()
			l.preparsed[path] = pp
			mu.Unlock()
		}(path)
	}
	wg.Wait()
}

// parsePackage reads and parses one package's sources into the shared
// FileSet.
func (l *loader) parsePackage(path string) *parsedPkg {
	srcs, err := l.files(path)
	if err != nil {
		return &parsedPkg{err: err}
	}
	if len(srcs) == 0 {
		return &parsedPkg{err: fmt.Errorf("no Go files in %q", path)}
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, srcs[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return &parsedPkg{err: err}
		}
		files = append(files, f)
	}
	return &parsedPkg{files: files}
}

// load parses and type-checks one local package, memoized.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	pp := l.preparsed[path]
	if pp == nil {
		pp = l.parsePackage(path)
	}
	if pp.err != nil {
		return nil, pp.err
	}
	files := pp.files
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			l.errs = append(l.errs, err)
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info) // errors collected above
	pkg := &Package{Path: path, Pkg: tpkg, Info: info, Files: files}
	l.pkgs[path] = pkg
	return pkg, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found at or above %s", abs)
		}
		d = parent
	}
}

// walkPackageDirs returns every directory under root that contains
// analyzable Go files, skipping hidden directories, testdata, and vendor.
func walkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		srcs, err := readPackageDir(p)
		if err == nil && len(srcs) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	return dirs, err
}

// readPackageDir reads the non-test Go sources of one directory. Files
// excluded from the host build by //go:build constraints or _GOOS/_GOARCH
// filename suffixes are skipped, so platform-gated alternates of one
// function (udp's pconn_linux.go vs pconn_generic.go) type-check as the
// go tool would build them rather than colliding as redeclarations.
func readPackageDir(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	srcs := make(map[string][]byte)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		full := filepath.Join(dir, name)
		data, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		srcs[full] = data
	}
	return srcs, nil
}

// importPathFor maps an absolute directory inside the module to its path.
func importPathFor(modRoot, modPath, dir string) string {
	rel, err := filepath.Rel(modRoot, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}
