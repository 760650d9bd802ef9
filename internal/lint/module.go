// Package lint is the project's static-analysis engine: a stdlib-only
// (go/ast + go/parser + go/types, no x/tools) loader and analyzer registry
// that mechanically enforces the engine's cross-cutting invariants — device
// I/O error accounting, pool get/put pairing, lock bracketing and ordering,
// and code-geometry hygiene. cmd/dcodelint is the CLI; DESIGN.md §7 maps
// each analyzer to the invariant it pins.
//
// The loader type-checks the module's non-test packages from source in
// dependency order, resolving standard-library imports through the
// toolchain's export data (go/importer). Test files are excluded on purpose:
// the analyzers guard production invariants, and the analyzers themselves
// are pinned by golden-file self-tests over testdata packages instead.
package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package of the module (or an extra package the
// golden-test harness loaded against it).
type Package struct {
	ImportPath string
	Dir        string
	Name       string
	Files      []*ast.File
	Filenames  []string
	Types      *types.Package
	Info       *types.Info
	Extra      bool // loaded by LoadDir, not part of the module walk

	imports []string
}

// Module is a loaded, fully type-checked module.
type Module struct {
	Path string // module path from go.mod
	Root string // absolute module root directory
	Fset *token.FileSet
	Pkgs map[string]*Package // by import path
	// Sorted holds the packages in dependency (topological) order, extras
	// appended in load order.
	Sorted []*Package

	std types.Importer
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`)

// LoadModule parses and type-checks every non-test package under root.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	match := moduleLineRE.FindSubmatch(gomod)
	if match == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	m := &Module{
		Path: string(match[1]),
		Root: root,
		Fset: token.NewFileSet(),
		Pkgs: make(map[string]*Package),
		std:  importer.Default(),
	}

	if err := m.walk(root); err != nil {
		return nil, err
	}
	order, err := m.topoSort()
	if err != nil {
		return nil, err
	}
	for _, pkg := range order {
		if err := m.check(pkg); err != nil {
			return nil, err
		}
		m.Sorted = append(m.Sorted, pkg)
	}
	return m, nil
}

// walk parses every package directory under root into m.Pkgs.
func (m *Module) walk(root string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		pkg, err := m.parseDir(path)
		if err != nil {
			return err
		}
		if pkg != nil {
			m.Pkgs[pkg.ImportPath] = pkg
		}
		return nil
	})
}

// parseDir parses the non-test Go files of one directory; it returns nil if
// the directory holds none.
func (m *Module) parseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	importPath := m.Path
	if rel != "." {
		importPath = m.Path + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{ImportPath: importPath, Dir: dir}
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		full := filepath.Join(dir, fn)
		f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if buildExcluded(f) {
			continue
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, full)
		pkg.Name = f.Name.Name
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if m.inModule(p) {
				pkg.imports = append(pkg.imports, p)
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

func (m *Module) inModule(importPath string) bool {
	return importPath == m.Path || strings.HasPrefix(importPath, m.Path+"/")
}

// buildExcluded reports whether a file's //go:build constraint rules it out
// on the host platform. The loader type-checks one concrete build of the
// module — the host's, like the compiler — so platform-variant files (e.g.
// the preadv/pwritev syscall path and its portable fallback) don't collide
// as duplicate declarations. Only explicit //go:build lines are consulted;
// this module does not use filename-implied constraints.
func buildExcluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // only comments above the package clause can constrain
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return false
			}
			return !expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH
			})
		}
	}
	return false
}

// topoSort orders the module packages so every package follows its imports.
func (m *Module) topoSort() ([]*Package, error) {
	paths := make([]string, 0, len(m.Pkgs))
	for p := range m.Pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int)
	var order []*Package
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = visiting
		pkg := m.Pkgs[path]
		for _, dep := range pkg.imports {
			if _, ok := m.Pkgs[dep]; !ok {
				return fmt.Errorf("lint: %s imports %s, which has no Go files", path, dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Import implements types.Importer: module packages resolve to their
// already-checked types, everything else to the toolchain's export data.
func (m *Module) Import(path string) (*types.Package, error) {
	if pkg, ok := m.Pkgs[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: import %s before it was checked", path)
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// check type-checks one parsed package.
func (m *Module) check(pkg *Package) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(pkg.ImportPath, m.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.ImportPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// LoadDir parses and type-checks one extra directory (e.g. a golden testdata
// package) against the module and registers it under importPath. Test files
// are included here — golden packages are allowed to look like anything.
func (m *Module) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := m.Pkgs[importPath]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{ImportPath: importPath, Dir: dir, Extra: true}
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") {
			continue
		}
		full := filepath.Join(dir, fn)
		f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if buildExcluded(f) {
			continue
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, full)
		pkg.Name = f.Name.Name
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	if err := m.check(pkg); err != nil {
		return nil, err
	}
	m.Pkgs[importPath] = pkg
	m.Sorted = append(m.Sorted, pkg)
	return pkg, nil
}

// ModulePackages returns the non-extra packages in dependency order.
func (m *Module) ModulePackages() []*Package {
	var out []*Package
	for _, p := range m.Sorted {
		if !p.Extra {
			out = append(out, p)
		}
	}
	return out
}

// Position resolves a node position against the module's file set.
func (m *Module) Position(pos token.Pos) token.Position { return m.Fset.Position(pos) }
