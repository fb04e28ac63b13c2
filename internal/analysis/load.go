package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// LoadedPackage is one parsed and type-checked package ready for analysis.
type LoadedPackage struct {
	Path  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	Error        *struct{ Err string }
}

// LoadPackages resolves patterns with `go list`, parses each matched
// package's non-test sources, and type-checks them in dependency order.
// Imports within the matched set resolve to the freshly checked packages;
// everything else (the standard library) is type-checked from GOROOT source
// via go/importer, so loading works offline and without build artifacts.
func LoadPackages(fset *token.FileSet, dir string, patterns ...string) ([]*LoadedPackage, error) {
	pkgs, _, err := load(fset, dir, false, patterns)
	return pkgs, err
}

// load is LoadPackages that, withTests, also returns the matched packages'
// test builds, as go test compiles them: each package's sources together
// with its in-package test files, and its external test package checked
// against that build.
func load(fset *token.FileSet, dir string, withTests bool, patterns []string) ([]*LoadedPackage, []*LoadedPackage, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json=ImportPath,Dir,Name,GoFiles,TestGoFiles,XTestGoFiles,Imports,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, errBuf.String())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("decode go list output: %w", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		listed = append(listed, &p)
	}
	byPath := make(map[string]*listedPackage, len(listed))
	for _, p := range listed {
		byPath[p.ImportPath] = p
	}
	order, err := topoOrder(listed, byPath)
	if err != nil {
		return nil, nil, err
	}

	checked := make(map[string]*types.Package)
	imp := &chainImporter{
		local:    checked,
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	var loaded []*LoadedPackage
	for _, p := range order {
		lp, err := checkPackage(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		checked[p.ImportPath] = lp.Pkg
		loaded = append(loaded, lp)
	}
	if !withTests {
		return loaded, nil, nil
	}
	// Every package is checked by now, so a test may import any of them.
	var tests []*LoadedPackage
	for _, p := range order {
		pkg := checked[p.ImportPath]
		if len(p.TestGoFiles) > 0 {
			lp, err := checkPackage(fset, imp, p.ImportPath, p.Dir, append(slices.Clip(p.GoFiles), p.TestGoFiles...))
			if err != nil {
				return nil, nil, err
			}
			tests, pkg = append(tests, lp), lp.Pkg
		}
		if len(p.XTestGoFiles) > 0 {
			ti := &testImporter{chainImporter: imp, fset: fset, byPath: byPath,
				over: map[string]*types.Package{p.ImportPath: pkg}}
			lp, err := checkPackage(fset, ti, p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
			if err != nil {
				return nil, nil, err
			}
			tests = append(tests, lp)
		}
	}
	return loaded, tests, nil
}

// LoadFixtureTree loads every package under root (a GOPATH-like src tree,
// as analysistest lays fixtures out): each directory containing .go files
// becomes a package whose import path is its path relative to root.
// Fixture-internal imports resolve to each other; the rest is stdlib.
func LoadFixtureTree(fset *token.FileSet, root string) ([]*LoadedPackage, error) {
	var pkgs []*listedPackage
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || !fi.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var goFiles []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				goFiles = append(goFiles, e.Name())
			}
		}
		if len(goFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		// Import paths are rooted at the tree's base name, matching how the
		// fixture sources import each other: a tree at testdata/src/metricname
		// holds packages like "metricname/internal/obs".
		importPath := filepath.Base(root)
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		sort.Strings(goFiles)
		pkgs = append(pkgs, &listedPackage{
			ImportPath: importPath,
			Dir:        path,
			GoFiles:    goFiles,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Imports between fixture packages are discovered by parsing.
	byPath := make(map[string]*listedPackage, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	for _, p := range pkgs {
		for _, f := range p.GoFiles {
			src, err := parser.ParseFile(token.NewFileSet(), filepath.Join(p.Dir, f), nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, im := range src.Imports {
				path := strings.Trim(im.Path.Value, `"`)
				if _, ok := byPath[path]; ok {
					p.Imports = append(p.Imports, path)
				}
			}
		}
	}
	order, err := topoOrder(pkgs, byPath)
	if err != nil {
		return nil, err
	}
	checked := make(map[string]*types.Package)
	imp := &chainImporter{
		local:    checked,
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	var loaded []*LoadedPackage
	for _, p := range order {
		lp, err := checkPackage(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = lp.Pkg
		loaded = append(loaded, lp)
	}
	return loaded, nil
}

// topoOrder sorts packages so every package follows its in-set imports.
func topoOrder(pkgs []*listedPackage, byPath map[string]*listedPackage) ([]*listedPackage, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(pkgs))
	var order []*listedPackage
	var visit func(p *listedPackage) error
	visit = func(p *listedPackage) error {
		switch state[p.ImportPath] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle through %s", p.ImportPath)
		}
		state[p.ImportPath] = visiting
		for _, dep := range p.Imports {
			if d, ok := byPath[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p.ImportPath] = done
		order = append(order, p)
		return nil
	}
	// Deterministic order regardless of go list / filesystem ordering.
	sorted := append([]*listedPackage(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	for _, p := range sorted {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// chainImporter resolves module-local imports from the current run's
// freshly checked packages and everything else through the fallback.
type chainImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := c.local[path]; ok {
		return pkg, nil
	}
	return c.fallback.Import(path)
}

// testImporter resolves the imports of an external test package as go
// test builds it: over starts with the package under test as its test
// build, and a module package that imports it, directly or not, is
// checked again against that build on first import.
type testImporter struct {
	*chainImporter
	fset   *token.FileSet
	byPath map[string]*listedPackage
	over   map[string]*types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.over[path]; ok {
		return pkg, nil
	}
	p, ok := ti.byPath[path]
	if !ok {
		return ti.chainImporter.Import(path)
	}
	pkg, stale := ti.local[path], false
	for _, dep := range p.Imports {
		if _, ok := ti.byPath[dep]; ok {
			d, err := ti.Import(dep)
			if err != nil {
				return nil, err
			}
			stale = stale || d != ti.local[dep]
		}
	}
	if stale {
		lp, err := checkPackage(ti.fset, ti, path, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg = lp.Pkg
	}
	ti.over[path] = pkg
	return pkg, nil
}

// checkPackage parses files and runs the type checker.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, fileNames []string) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &LoadedPackage{Path: path, Dir: dir, Files: files, Pkg: pkg, Info: info}, nil
}
