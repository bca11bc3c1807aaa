package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// Oracle tests: randomly generated arithmetic/comparison expressions are
// evaluated both by the engine and by a direct Go interpreter; results must
// agree exactly.

type oracleValue struct {
	f      float64
	isNull bool
	isErr  bool
}

func oracleEval(e sqlparser.Expr) oracleValue {
	switch n := e.(type) {
	case sqlparser.Literal:
		if n.Val.IsNull() {
			return oracleValue{isNull: true}
		}
		f, err := n.Val.AsFloat()
		if err != nil {
			return oracleValue{isErr: true}
		}
		return oracleValue{f: f}
	case sqlparser.Unary:
		x := oracleEval(n.X)
		if x.isErr {
			return x
		}
		if n.Op == "-" {
			if x.isNull {
				return x
			}
			return oracleValue{f: -x.f}
		}
		if x.isNull {
			return x
		}
		if x.f != 0 {
			return oracleValue{f: 0}
		}
		return oracleValue{f: 1}
	case sqlparser.Binary:
		l := oracleEval(n.L)
		if l.isErr {
			return l
		}
		// Short-circuit semantics for AND/OR.
		if n.Op == "AND" {
			if !l.isNull && l.f == 0 {
				return oracleValue{f: 0}
			}
			r := oracleEval(n.R)
			if r.isErr {
				return r
			}
			if !r.isNull && r.f == 0 {
				return oracleValue{f: 0}
			}
			if l.isNull || r.isNull {
				return oracleValue{isNull: true}
			}
			return oracleValue{f: 1}
		}
		if n.Op == "OR" {
			if !l.isNull && l.f != 0 {
				return oracleValue{f: 1}
			}
			r := oracleEval(n.R)
			if r.isErr {
				return r
			}
			if !r.isNull && r.f != 0 {
				return oracleValue{f: 1}
			}
			if l.isNull || r.isNull {
				return oracleValue{isNull: true}
			}
			return oracleValue{f: 0}
		}
		r := oracleEval(n.R)
		if r.isErr {
			return r
		}
		if l.isNull || r.isNull {
			return oracleValue{isNull: true}
		}
		switch n.Op {
		case "+":
			return oracleValue{f: l.f + r.f}
		case "-":
			return oracleValue{f: l.f - r.f}
		case "*":
			return oracleValue{f: l.f * r.f}
		case "/":
			if r.f == 0 {
				return oracleValue{isErr: true}
			}
			return oracleValue{f: l.f / r.f}
		case "=":
			return boolVal(l.f == r.f)
		case "<>":
			return boolVal(l.f != r.f)
		case "<":
			return boolVal(l.f < r.f)
		case "<=":
			return boolVal(l.f <= r.f)
		case ">":
			return boolVal(l.f > r.f)
		case ">=":
			return boolVal(l.f >= r.f)
		}
		return oracleValue{isErr: true}
	case sqlparser.Case:
		for _, w := range n.Whens {
			c := oracleEval(w.Cond)
			if c.isErr {
				return c
			}
			if !c.isNull && c.f != 0 {
				return oracleEval(w.Then)
			}
		}
		if n.Else != nil {
			return oracleEval(n.Else)
		}
		return oracleValue{isNull: true}
	default:
		return oracleValue{isErr: true}
	}
}

func boolVal(b bool) oracleValue {
	if b {
		return oracleValue{f: 1}
	}
	return oracleValue{f: 0}
}

// randomNumExpr and randomBoolExpr generate well-typed expressions: the
// engine (correctly) refuses to compare numbers with booleans, so the
// generator respects the type discipline.
func randomNumExpr(r *rand.Rand, depth int) sqlparser.Expr {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return sqlparser.Literal{Val: value.Null}
		case 1, 2:
			return sqlparser.Literal{Val: value.Int(int64(r.Intn(21) - 10))}
		default:
			return sqlparser.Literal{Val: value.Float(float64(r.Intn(160)-80) / 8)}
		}
	}
	switch r.Intn(3) {
	case 0:
		ops := []string{"+", "-", "*", "/"}
		return sqlparser.Binary{Op: ops[r.Intn(len(ops))],
			L: randomNumExpr(r, depth-1), R: randomNumExpr(r, depth-1)}
	case 1:
		return sqlparser.Unary{Op: "-", X: randomNumExpr(r, depth-1)}
	default:
		n := 1 + r.Intn(2)
		whens := make([]sqlparser.When, n)
		for i := range whens {
			whens[i] = sqlparser.When{Cond: randomBoolExpr(r, depth-1), Then: randomNumExpr(r, depth-1)}
		}
		c := sqlparser.Case{Whens: whens}
		if r.Intn(2) == 0 {
			c.Else = randomNumExpr(r, depth-1)
		}
		return c
	}
}

func randomBoolExpr(r *rand.Rand, depth int) sqlparser.Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return sqlparser.Binary{Op: ops[r.Intn(len(ops))],
			L: randomNumExpr(r, 0), R: randomNumExpr(r, 0)}
	}
	switch r.Intn(3) {
	case 0:
		return sqlparser.Binary{Op: "AND", L: randomBoolExpr(r, depth-1), R: randomBoolExpr(r, depth-1)}
	case 1:
		return sqlparser.Binary{Op: "OR", L: randomBoolExpr(r, depth-1), R: randomBoolExpr(r, depth-1)}
	default:
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return sqlparser.Binary{Op: ops[r.Intn(len(ops))],
			L: randomNumExpr(r, depth-1), R: randomNumExpr(r, depth-1)}
	}
}

// TestEngineAgreesWithOracle runs every random expression through BOTH
// executors — the compiled Plan and the row reference — and checks each
// against the independent Go interpreter, plus the two against each other
// (including agreement on whether evaluation errors).
func TestEngineAgreesWithOracle(t *testing.T) {
	vec := New(NewCatalog())
	row := New(NewCatalog())
	r := rand.New(rand.NewSource(8))
	checked := 0
	for i := 0; i < 2000; i++ {
		var expr sqlparser.Expr
		if i%3 == 0 {
			expr = randomBoolExpr(r, 3)
		} else {
			expr = randomNumExpr(r, 3)
		}
		want := oracleEval(expr)

		src := fmt.Sprintf("SELECT %s AS v;", expr.SQL())
		script, err := sqlparser.Parse(src)
		if err != nil {
			t.Fatalf("generated SQL does not parse: %v\n%s", err, src)
		}
		res, err := execScript(vec, script, nil)
		rowRes, rowErr := row.ExecScriptRow(script, nil)

		// Differential: both paths must agree on error-ness and value.
		if (err == nil) != (rowErr == nil) {
			t.Fatalf("%s: plan err=%v, row err=%v", expr.SQL(), err, rowErr)
		}
		if err == nil {
			got, rowGot := res.Rows[0][0], rowRes.Rows[0][0]
			if got.IsNull() != rowGot.IsNull() || (!got.IsNull() && !got.Equal(rowGot)) {
				t.Fatalf("%s: plan = %v, row = %v", expr.SQL(), got, rowGot)
			}
		}

		if want.isErr {
			// The engine may legitimately avoid an error the oracle hit
			// (e.g. short-circuit skipped a division by zero on the
			// other side) — only flag the reverse direction.
			continue
		}
		if err != nil {
			t.Fatalf("engine error for %s: %v (oracle had none)", expr.SQL(), err)
		}
		got := res.Rows[0][0]
		if want.isNull {
			if !got.IsNull() {
				t.Fatalf("%s = %v, oracle says NULL", expr.SQL(), got)
			}
			checked++
			continue
		}
		if got.IsNull() {
			t.Fatalf("%s = NULL, oracle says %g", expr.SQL(), want.f)
		}
		f, convErr := got.AsFloat()
		if convErr != nil {
			t.Fatalf("%s produced non-numeric %v", expr.SQL(), got)
		}
		if f != want.f && !(math.IsNaN(f) && math.IsNaN(want.f)) {
			t.Fatalf("%s = %g, oracle says %g", expr.SQL(), f, want.f)
		}
		checked++
	}
	if checked < 500 {
		t.Fatalf("only %d expressions checked; generator too error-prone", checked)
	}
}
