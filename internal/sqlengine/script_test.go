package sqlengine

import (
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// Script-level helpers for the tests: production code compiles one SELECT
// at a time (CompileSelect); the tests run whole scripts through the same
// plans and compare boxed results.

// Exec runs the plan without per-operator statistics.
func (p *Plan) Exec(e *Engine, params map[string]value.Value) (*PlanResult, error) {
	return p.ExecCounted(e, params, nil)
}

// ScriptPlan is a script compiled statement-by-statement.
type ScriptPlan struct {
	plans []*Plan
}

// CompileScript compiles every SELECT of a script; Exec runs them in order
// and returns the last result (nil when the script holds no SELECT).
func CompileScript(script *sqlparser.Script) *ScriptPlan {
	sp := &ScriptPlan{}
	for _, stx := range script.Statements {
		if sel, ok := stx.(sqlparser.Select); ok {
			sp.plans = append(sp.plans, CompileSelect(sel))
		}
	}
	return sp
}

// Exec runs the script's statements on the engine. Intermediate results
// are released; the caller releases the returned one.
func (sp *ScriptPlan) Exec(e *Engine, params map[string]value.Value) (*PlanResult, error) {
	var last *PlanResult
	for _, p := range sp.plans {
		if last != nil {
			last.Release()
		}
		res, err := p.Exec(e, params)
		if err != nil {
			return nil, err
		}
		last = res
	}
	return last, nil
}

// Result boxes the columnar result into the legacy row layout.
func (r *ColResult) Result() *Result {
	n := r.NumRows()
	out := &Result{Cols: append([]string(nil), r.Cols...)}
	if n == 0 {
		return out
	}
	out.Rows = make([][]value.Value, n)
	for i := 0; i < n; i++ {
		row := make([]value.Value, len(r.Columns))
		for j, c := range r.Columns {
			row[j] = c.Value(i)
		}
		out.Rows[i] = row
	}
	return out
}

// ColIndex returns the index of the named output column, or -1.
func (r *Result) ColIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}
