package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// DeadAnalyzer reports code that only tests keep alive: a function or
// method, exported or not, declared under internal/ or cmd/ that no
// non-test file of the module uses. A use inside the function's own body
// (recursion) does not count, and methods that satisfy an interface are
// never reported — their callers reach them through the interface. In a
// module's root package, the public API, it reports only the functions
// that return an option (a type named EvalOption or Option): an option no
// shipped program sets, examples/ and cmd/ included, is a knob nothing
// justifies.
//
// The check needs the whole module: it reads uses from Pass.Module, which
// Load fills with every package of the module whatever the patterns, so
// `fplint ./internal/mc/...` reports exactly the mc subset of `./...`.
// Deleting a finding can expose more (its callees), so sweep until clean.
var DeadAnalyzer = &Analyzer{
	Name: "fpdead",
	Doc:  "flag functions and methods under internal/ and cmd/, and root-package options, that no non-test file of the module uses",
	Run:  runDead,
}

// deadAllow is the one place to keep a declaration fpdead would report.
// Each target is a path fragment (see PathMatches) matched against the
// declaring package ("internal/benchfix"), its file
// ("internal/lint/analysistest.go") or its qualified name
// ("internal/sqlparser.ParseExpr", "internal/obs.Node.Visit").
// Keep it short, and give every entry its reason.
var deadAllow = []struct{ target, reason string }{
	{"internal/server/protocoltest", "wire-protocol conformance suite; the package exists for tests"},
	{"internal/benchfix", "shared benchmark fixtures; the package exists for tests"},
	{"internal/lint/analysistest.go", "the fixture runner the analyzer tests drive"},
	{"internal/sqlparser.ParseExpr", "expression entry point that sqlengine's tests parse predicates with"},
	{"internal/sqlparser.ExampleScenarioNames", "tests in other packages iterate the shipped scenarios through it"},
	{"internal/obs.Node.Visit", "tree walk that tests in other packages inspect span trees with"},
	{"internal/stats.Quantile", "exact sorted-sample quantile that t-digest accuracy tests in stats and mc measure against"},
	{"internal/rng.Source.Intn", "bounded draw that generated-input tests in rng, stats and aggregate use"},
	{"internal/rng.Derive", "called only by bench/layerprobe, a separate module behind a build tag"},
	{"internal/scenario.Scenario.DefaultPoint", "called only by bench/layerprobe, a separate module behind a build tag"},
	{"internal/storage.NewStore", "called only by bench/layerprobe, a separate module behind a build tag"},
}

// deadIndex is computed once per Module and shared by its passes.
type deadIndex struct {
	// uses maps a function's key (funcKey) to every position that names it.
	uses map[string][]token.Pos
	// ifaces maps a method name to every interface in view that has it.
	ifaces map[string][]*types.Interface
}

func runDead(pass *Pass) error {
	mod := pass.Module
	scoped := PathMatches(pass.PkgPath, "internal") || PathMatches(pass.PkgPath, "cmd")
	root := !scoped && slices.Contains(mod.Roots, pass.PkgPath)
	if !scoped && !root {
		return nil
	}
	mod.deadOnce.Do(func() { mod.dead = indexModule(mod) })
	idx := mod.dead
	for _, f := range pass.Files {
		file := pass.Fset.Position(f.Pos()).Filename
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" || fd.Name.Name == "init" {
				continue
			}
			if fd.Recv == nil && fd.Name.Name == "main" && pass.Pkg.Name() == "main" {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if root && !returnsOption(fn) {
				continue
			}
			key := funcKey(fn)
			if usedOutside(idx.uses[key], fd) || deadAllowed(pass.PkgPath, file, key) {
				continue
			}
			if root {
				pass.Reportf(fd.Name.Pos(), "option %s has no use outside tests", fn.Name())
				continue
			}
			recv := recvNamed(fn)
			if recv != nil && satisfiesInterface(idx, recv, fn.Name()) {
				continue
			}
			if recv != nil {
				pass.Reportf(fd.Name.Pos(), "method %s.%s has no use outside tests", recv.Obj().Name(), fn.Name())
			} else {
				pass.Reportf(fd.Name.Pos(), "func %s has no use outside tests", fn.Name())
			}
		}
	}
	return nil
}

// returnsOption reports whether fn is a plain function whose one result is
// a type named EvalOption or Option declared in its own package.
func returnsOption(fn *types.Func) bool {
	sig := fn.Signature()
	if sig.Recv() != nil || sig.Results().Len() != 1 {
		return false
	}
	n, ok := sig.Results().At(0).Type().(*types.Named)
	if !ok || n.Obj().Pkg() != fn.Pkg() {
		return false
	}
	name := n.Obj().Name()
	return name == "EvalOption" || name == "Option"
}

func usedOutside(uses []token.Pos, fd *ast.FuncDecl) bool {
	for _, p := range uses {
		if p < fd.Pos() || p >= fd.End() {
			return true
		}
	}
	return false
}

func deadAllowed(pkgPath, file, key string) bool {
	fileFrag := pkgPath + "/" + filepath.Base(file)
	for _, e := range deadAllow {
		if PathMatches(pkgPath, e.target) || PathMatches(fileFrag, e.target) || PathMatches(key, e.target) {
			return true
		}
	}
	return false
}

// funcKey names a function across type-checker universes: a package's own
// source and another package's view of it through export data hold
// distinct objects for the same declaration. The key is
// "pkgpath.Func" or "pkgpath.Type.Method".
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	if fn.Signature().Recv() != nil {
		recv := recvNamed(fn)
		if recv == nil {
			return ""
		}
		name = recv.Obj().Name() + "." + name
	}
	return fn.Pkg().Path() + "." + name
}

// recvNamed returns the named type a method is declared on, or nil for
// plain functions and interface methods.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || types.IsInterface(n) {
		return nil
	}
	return n
}

func indexModule(mod *Module) *deadIndex {
	idx := &deadIndex{uses: map[string][]token.Pos{}, ifaces: map[string][]*types.Interface{}}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := range it.NumMethods() {
			name := it.Method(i).Name()
			idx.ifaces[name] = append(idx.ifaces[name], it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					addIface(n)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range mod.Packages {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				key := funcKey(fn)
				idx.uses[key] = append(idx.uses[key], id.Pos())
			}
		}
	}
	return idx
}

// satisfiesInterface reports whether named type t (or *t) implements some
// interface in view that has a method called name. Signatures are compared
// as qualified strings, not by identity, because the interface and t may
// come from different type-checker universes.
func satisfiesInterface(idx *deadIndex, t *types.Named, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	for _, it := range idx.ifaces[name] {
		ok := true
		for i := range it.NumMethods() {
			want := it.Method(i)
			sel := ms.Lookup(want.Pkg(), want.Name())
			if sel == nil || sigString(sel.Obj().Type()) != sigString(want.Type()) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// sigString renders a method signature without parameter names.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	s := "("
	for v := range sig.Params().Variables() {
		s += types.TypeString(v.Type(), nil) + ","
	}
	s += ")("
	for v := range sig.Results().Variables() {
		s += types.TypeString(v.Type(), nil) + ","
	}
	if sig.Variadic() {
		s += "..."
	}
	// interface{} and its alias any are one type.
	return strings.ReplaceAll(s+")", "interface{}", "any")
}
