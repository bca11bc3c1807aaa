package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// DeterminismAnalyzer enforces the repository's central invariant: the
// simulate/plan path is a pure function of (scenario, bindings, seed).
// Every bit-identity guarantee — shard stitching (PR 5), spill vs RAM
// (PR 6), renders under chaos (PR 9) — rests on it.
//
// Inside the determinism-critical packages it reports:
//
//   - imports of math/rand, math/rand/v2, or crypto/rand: entropy is
//     internal/rng's job (seeded per (site, world)); any other source is
//     unseeded or machine-dependent;
//   - calls to time.Now / time.Since / time.Tick / time.After: results
//     must not observe the wall clock (internal/obs owns the observability
//     clock for timing instrumentation, whose readings never feed result
//     columns);
//   - `for range` over a map that appends to an outer slice (unless the
//     enclosing function visibly sorts that slice afterwards) or folds
//     into an outer floating-point accumulator: map iteration order is
//     randomized per run, so such loops produce order-dependent output —
//     the exact bug class that breaks shard bit-identity undetectably.
var DeterminismAnalyzer = &Analyzer{
	Name: "fpdeterminism",
	Doc: "forbid wall-clock reads, non-rng entropy, and map-iteration-order-" +
		"dependent folds in the simulate/plan packages",
	Packages: []string{
		"internal/sqlengine",
		"internal/mc",
		"internal/vg",
		"internal/aggregate",
		"internal/stats",
		"internal/models",
		"internal/rng",
	},
	Run: runDeterminism,
}

var forbiddenEntropyImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

var forbiddenClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Tick":  true,
	"After": true,
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if forbiddenEntropyImports[path] {
				pass.Reportf(spec.Pos(), "import of %s in a determinism-critical package: only internal/rng may draw entropy (seeded per (site, world)) so renders stay bit-reproducible", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pass.TypesInfo, call)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if obj.Pkg().Path() == "time" && forbiddenClockFuncs[obj.Name()] {
				pass.Reportf(call.Pos(), "call to time.%s in a determinism-critical package: results must not observe the wall clock (use internal/obs's clock for timing instrumentation)", obj.Name())
			}
			return true
		})
		for _, fn := range functionsIn(f) {
			checkMapRangeFolds(pass, fn)
		}
	}
	return nil
}

// checkMapRangeFolds flags map-range loops in fn whose body builds
// order-dependent output.
func checkMapRangeFolds(pass *Pass, fn funcNode) {
	ast.Inspect(fn.body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			asg, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			switch asg.Tok {
			case token.ASSIGN:
				// x = append(x, ...) onto a slice declared outside the loop.
				for i, rhs := range asg.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pass.TypesInfo, call) || i >= len(asg.Lhs) {
						continue
					}
					if obj := outerVar(pass.TypesInfo, asg.Lhs[i], rng); obj != nil && !sortedAfter(pass, fn.body, obj, rng) {
						pass.Reportf(asg.Pos(), "appends to %s in map iteration order: map order is randomized per run; iterate sorted keys or sort %s afterwards", obj.Name(), obj.Name())
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				// x += v floating-point fold: float addition is not
				// associative, so the fold's value depends on map order.
				for _, lhs := range asg.Lhs {
					obj := outerVar(pass.TypesInfo, lhs, rng)
					if obj == nil {
						continue
					}
					if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
						pass.Reportf(asg.Pos(), "floating-point fold into %s in map iteration order: float %s is not associative, so the result depends on randomized map order; fold over sorted keys", obj.Name(), asg.Tok)
					}
				}
			}
			return true
		})
		return true
	})
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// outerVar resolves expr to a variable declared outside loop (or a struct
// field, which is outer by definition). Returns nil for loop-local
// variables and unresolvable expressions.
func outerVar(info *types.Info, expr ast.Expr, loop ast.Node) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok {
			if v, ok = info.Defs[e].(*types.Var); !ok {
				return nil
			}
		}
		if within(loop, int(v.Pos())) {
			return nil // declared inside the loop: per-iteration, not a fold target
		}
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}

// sortedAfter reports whether fn's body, after the range loop, passes obj
// to a sort.* or slices.Sort* call — the Catalog.Names pattern: collect map
// keys, then sort, which is deterministic.
func sortedAfter(pass *Pass, body *ast.BlockStmt, obj *types.Var, loop ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < loop.End() {
			return true
		}
		fnObj := calleeObject(pass.TypesInfo, call)
		if fnObj == nil || fnObj.Pkg() == nil {
			return true
		}
		if p := fnObj.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
