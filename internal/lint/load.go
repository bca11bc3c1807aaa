package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// Module is the whole load this package came from. Whole-program
	// analyzers (fpdead) read uses from every package in it, so a partial
	// pattern sees the same callers a ./... run does.
	Module *Module
}

// Module is every package of the loaded patterns' module, type-checked
// from source.
type Module struct {
	Packages []*Package
	// Roots are the import paths of the modules' root packages, their
	// public API.
	Roots []string

	deadOnce sync.Once
	dead     *deadIndex
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	Name       string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON object stream it prints.
func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %v: %w\n%s", args, err, stderr.String())
	}
	var out []listEntry
	dec := json.NewDecoder(&stdout)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go %v: decoding output: %w", args, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// exportLookup adapts an ImportPath→export-file map to the lookup function
// the gc importer wants. The importer resolves transitive dependencies
// through the same lookup, so the map must come from a `-deps` listing.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
}

func typeCheck(fset *token.FileSet, pkgPath string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, err)
	}
	return tpkg, info, nil
}

func parseDirFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Load loads and type-checks the packages matched by patterns (e.g.
// "./...") in module directory dir. Type information for dependencies comes
// from the toolchain's export data (`go list -export`), so loading works
// offline and without any dependency beyond the go command itself.
//
// Every package of the patterns' module is type-checked, matched or not,
// and shared through Package.Module; only the matched ones are returned.
//
// Only non-test Go files are analyzed: the invariants fplint enforces
// guard production code paths, and test files routinely (and legitimately)
// use wall clocks and ad-hoc randomness.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	matched, err := goList(dir, append([]string{"list", "-json=ImportPath,Module"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	var modules []string
	for _, e := range matched {
		want[e.ImportPath] = true
		if e.Module != nil && !slices.Contains(modules, e.Module.Path+"/...") {
			modules = append(modules, e.Module.Path+"/...")
		}
	}
	if len(modules) == 0 {
		return nil, nil
	}
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,Export,Name,GoFiles,Standard,DepOnly"}, modules...)
	entries, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(entries))
	var targets []listEntry
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if !e.DepOnly && !e.Standard && e.Name != "" {
			targets = append(targets, e)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	mod := &Module{}
	for _, m := range modules {
		mod.Roots = append(mod.Roots, strings.TrimSuffix(m, "/..."))
	}
	var pkgs []*Package
	for _, e := range targets {
		files, err := parseDirFiles(fset, e.Dir, e.GoFiles)
		if err != nil {
			return nil, err
		}
		tpkg, info, err := typeCheck(fset, e.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkg := &Package{PkgPath: e.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info, Module: mod}
		mod.Packages = append(mod.Packages, pkg)
		if want[e.ImportPath] {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadFixture loads one analysis fixture: the package rooted at
// srcRoot/pkgPath (the analysistest testdata/src convention), type-checked
// under import path pkgPath as the root package of its own module.
// Fixture imports are limited to the standard library; their export data is
// resolved through `go list -export` exactly as in Load.
func LoadFixture(srcRoot, pkgPath string) (*Package, error) {
	dir := filepath.Join(srcRoot, filepath.FromSlash(pkgPath))
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		if !de.IsDir() && filepath.Ext(de.Name()) == ".go" {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in fixture %s", dir)
	}
	fset := token.NewFileSet()
	files, err := parseDirFiles(fset, dir, names)
	if err != nil {
		return nil, err
	}

	imports := map[string]bool{}
	for _, f := range files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			if p != "unsafe" {
				imports[p] = true
			}
		}
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		args := []string{"list", "-export", "-deps", "-json=ImportPath,Export"}
		for p := range imports {
			args = append(args, p)
		}
		sort.Strings(args[4:])
		entries, err := goList(srcRoot, args...)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.Export != "" {
				exports[e.ImportPath] = e.Export
			}
		}
	}

	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	tpkg, info, err := typeCheck(fset, pkgPath, files, imp)
	if err != nil {
		return nil, err
	}
	pkg := &Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info, Module: &Module{Roots: []string{pkgPath}}}
	pkg.Module.Packages = []*Package{pkg}
	return pkg, nil
}
