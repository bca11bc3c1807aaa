package lint

import (
	"go/ast"
	"go/types"
)

// UnusedResultAnalyzer is the vet "unusedresult" check with an extended
// list: calling a pure function as a statement discards its only effect.
// The classic bug is `fmt.Errorf(...)` on its own line where `return
// fmt.Errorf(...)` was meant — the error silently vanishes.
var UnusedResultAnalyzer = &Analyzer{
	Name: "fpunusedresult",
	Doc:  "flag statement-position calls to pure functions whose result is discarded",
	Run:  runUnusedResult,
}

// pureFuncs maps package path → function names whose only effect is their
// return value.
var pureFuncs = map[string]map[string]bool{
	"fmt": {"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true},
	"errors": {
		"New": true, "Unwrap": true, "Join": true, "Is": true, "As": true,
	},
	"strings": {
		"TrimSpace": true, "ToLower": true, "ToUpper": true, "Repeat": true,
		"Replace": true, "ReplaceAll": true, "Split": true, "Join": true,
		"Fields": true, "Contains": true, "HasPrefix": true, "HasSuffix": true,
	},
	"sort":    {"Reverse": true},
	"maps":    {"Keys": true, "Values": true, "Clone": true},
	"slices":  {"Clone": true, "Contains": true, "Index": true, "Sorted": true},
	"strconv": {"Itoa": true, "Quote": true, "FormatFloat": true, "FormatInt": true},
}

// pureMethods are conventionally side-effect-free methods: discarding their
// result is always a bug. A method of the same name with no result (the
// logger's Error) has no result to discard and is not flagged.
var pureMethods = map[string]bool{"Error": true, "String": true}

func runUnusedResult(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pass.TypesInfo, call)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
				if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() != 0 {
					// Method call: flag the conventional pure ones.
					sig, _ := obj.Type().(*types.Signature)
					if pureMethods[obj.Name()] && sig != nil && sig.Results().Len() > 0 && obj.Pkg().Path() != pass.Pkg.Path() {
						pass.Reportf(call.Pos(), "result of (%s).%s call is unused", s.Recv(), obj.Name())
					}
					return true
				}
			}
			if names, ok := pureFuncs[obj.Pkg().Path()]; ok && names[obj.Name()] {
				pass.Reportf(call.Pos(), "result of %s.%s call is unused: the call has no other effect", obj.Pkg().Name(), obj.Name())
			}
			return true
		})
	}
	return nil
}
