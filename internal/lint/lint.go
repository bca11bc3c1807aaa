// Package lint is fplint's analyzer suite: mechanical enforcement of the
// invariants this repository's correctness claims rest on.
//
// Every bit-identity guarantee the system makes — stitched shard renders
// equal to single-range renders, spill-tier renders equal to RAM renders,
// chaos-schedule renders equal to clean runs — holds only while a handful
// of coding invariants hold everywhere:
//
//   - the simulate/plan path draws entropy exclusively through internal/rng
//     and never observes the wall clock or map iteration order;
//   - every goroutine launched by the evaluator or the server converts
//     panics into errors at its own boundary (the PR 9 isolation contract);
//   - pooled buffers checked out of the plan executor or shard-worker
//     freelists are always released or handed onward;
//   - contexts are passed first and never stored;
//   - a counter field touched through sync/atomic is never touched any
//     other way.
//
// Each invariant is encoded as an Analyzer modeled on the
// golang.org/x/tools/go/analysis API (Name, Doc, Run(*Pass)). The suite is
// built on the standard library alone — go/ast, go/types, and the gc export
// data the toolchain already produces — so the repository keeps its
// zero-dependency go.mod and the linter runs anywhere the toolchain does.
// Fixtures under testdata/src follow the analysistest convention: "// want"
// comments pin the diagnostic each bad line must produce.
//
// Run the whole suite with:
//
//	go run ./cmd/fplint ./...
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant check. It mirrors the x/tools analysis.Analyzer
// surface that this suite needs: a name for diagnostics, a doc string for
// -list, a Run function, and — because scoping lives in the driver rather
// than in each check — an optional package allowlist.
type Analyzer struct {
	Name string
	Doc  string

	// Packages restricts the analyzer to import paths that match one of
	// these path fragments (see PathMatches). Empty means every package.
	Packages []string

	Run func(*Pass) error
}

// Pass carries one package's syntax and type information through an
// analyzer run, like analysis.Pass.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info
	Module    *Module

	diags []Diagnostic
}

// Diagnostic is one finding, positioned for file:line:col display.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suite returns every analyzer in the fplint suite, in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		GoRecoverAnalyzer,
		ReleaseAnalyzer,
		CtxFirstAnalyzer,
		AtomicCounterAnalyzer,
		ShadowAnalyzer,
		UnusedResultAnalyzer,
		DeadAnalyzer,
	}
}

// PathMatches reports whether import path pkg falls under the path fragment
// target: equal to it, or containing it as a complete slash-separated
// segment run ("internal/mc" matches "fuzzyprophet/internal/mc" and
// "internal/mc/fixture" but not "internal/mcmc").
func PathMatches(pkg, target string) bool {
	if pkg == target {
		return true
	}
	if strings.HasPrefix(pkg, target+"/") || strings.HasSuffix(pkg, "/"+target) {
		return true
	}
	return strings.Contains(pkg, "/"+target+"/")
}

// applies reports whether a runs on package path pkg.
func applies(a *Analyzer, pkg string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, t := range a.Packages {
		if PathMatches(pkg, t) {
			return true
		}
	}
	return false
}

// RunAnalyzers runs every applicable analyzer over every package and
// returns the findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !applies(a, pkg.PkgPath) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				PkgPath:   pkg.PkgPath,
				TypesInfo: pkg.Info,
				Module:    pkg.Module,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
			out = append(out, pass.diags...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// ---- shared syntax/type helpers ----

// calleeObject resolves the object a call expression invokes, looking
// through parentheses. Returns nil for calls through function values,
// conversions, and built-ins.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel]
	}
	return nil
}

// hasMethod reports whether t (or *t) has a method with one of the given
// names, and returns the first matching name.
func hasMethod(t types.Type, names ...string) (string, bool) {
	if t == nil {
		return "", false
	}
	ms := types.NewMethodSet(t)
	if _, ok := t.Underlying().(*types.Pointer); !ok {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			ms = types.NewMethodSet(types.NewPointer(t))
		}
	}
	for _, name := range names {
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return name, true
			}
		}
	}
	return "", false
}

// enclosingFuncs returns every function declaration and literal in f, each
// paired with its body. Used by checks that reason per-function.
type funcNode struct {
	name string // declared name, or "func literal"
	body *ast.BlockStmt
	typ  *ast.FuncType
	decl *ast.FuncDecl // nil for literals
}

func functionsIn(f *ast.File) []funcNode {
	var out []funcNode
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcNode{name: fn.Name.Name, body: fn.Body, typ: fn.Type, decl: fn})
			}
		case *ast.FuncLit:
			out = append(out, funcNode{name: "func literal", body: fn.Body, typ: fn.Type})
		}
		return true
	})
	return out
}
