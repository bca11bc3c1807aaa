package sqlengine

import (
	"math"
	"math/rand"
	"testing"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// Constant expressions — site arguments, OPTIMIZE constraints — run as a
// Plan with no FROM, over its one row. FuzzPlanMatchesRow always has a
// FROM; this target checks the no-FROM shape against the row evaluator.

// constParams are the parameters the generated expressions may reference;
// @missing is never bound.
var constParams = map[string]value.Value{
	"i":    value.Int(7),
	"neg":  value.Int(-3),
	"zero": value.Int(0),
	"f":    value.Float(2.5),
	"nz":   value.Float(math.Copysign(0, -1)),
	"s":    value.Str(" Ab'c "),
	"b":    value.Bool(true),
	"null": value.Null,
}

var constParamNames = []string{"i", "neg", "zero", "f", "nz", "s", "b", "null", "missing"}

// constBuiltins are the scalar builtins with the argument counts they
// accept (-1: any count from one to three).
var constBuiltins = []struct {
	name string
	args int
}{
	{"ABS", 1}, {"SQRT", 1}, {"EXP", 1}, {"LN", 1}, {"FLOOR", 1},
	{"CEILING", 1}, {"ROUND", 1}, {"SIGN", 1}, {"POWER", 2},
	{"LEAST", -1}, {"GREATEST", -1}, {"COALESCE", -1}, {"UPPER", 1},
	{"LOWER", 1}, {"LTRIM", 1}, {"RTRIM", 1}, {"TRIM", 1}, {"LEN", 1},
	{"SUBSTRING", 3}, {"CONCAT", -1}, {"REPLACE", 3}, {"NOSUCH", 1},
}

// randomConstExpr generates an expression of parameters, literals and
// scalar builtins, with no type discipline: kind errors are part of what
// the two evaluators must agree on.
func randomConstExpr(r *rand.Rand, depth int) sqlparser.Expr {
	if depth <= 0 || r.Intn(5) == 0 {
		switch r.Intn(8) {
		case 0, 1:
			return sqlparser.ParamRef{Name: constParamNames[r.Intn(len(constParamNames))]}
		case 2:
			return sqlparser.Literal{Val: value.Int(int64(r.Intn(9) - 4))}
		case 3:
			return sqlparser.Literal{Val: value.Float(float64(r.Intn(64)-32) / 4)}
		case 4:
			return sqlparser.Literal{Val: value.Str([]string{"", "x", "2", "true", "a'b"}[r.Intn(5)])}
		case 5:
			return sqlparser.Literal{Val: value.Bool(r.Intn(2) == 0)}
		case 6:
			return sqlparser.Literal{Val: value.Null}
		default:
			return sqlparser.Literal{Val: value.Int(math.MaxInt64 - int64(r.Intn(2)))}
		}
	}
	switch r.Intn(9) {
	case 0:
		ops := []string{"+", "-", "*", "/", "%"}
		return sqlparser.Binary{Op: ops[r.Intn(len(ops))], L: randomConstExpr(r, depth-1), R: randomConstExpr(r, depth-1)}
	case 1:
		ops := []string{"=", "<>", "<", "<=", ">", ">=", "AND", "OR"}
		return sqlparser.Binary{Op: ops[r.Intn(len(ops))], L: randomConstExpr(r, depth-1), R: randomConstExpr(r, depth-1)}
	case 2:
		return sqlparser.Unary{Op: []string{"-", "NOT"}[r.Intn(2)], X: randomConstExpr(r, depth-1)}
	case 3, 4:
		fn := constBuiltins[r.Intn(len(constBuiltins))]
		n := fn.args
		if n < 0 {
			n = 1 + r.Intn(3)
		}
		args := make([]sqlparser.Expr, n)
		for i := range args {
			args[i] = randomConstExpr(r, depth-1)
		}
		return sqlparser.FuncCall{Name: fn.name, Args: args}
	case 5:
		whens := make([]sqlparser.When, 1+r.Intn(2))
		for i := range whens {
			whens[i] = sqlparser.When{Cond: randomConstExpr(r, depth-1), Then: randomConstExpr(r, depth-1)}
		}
		c := sqlparser.Case{Whens: whens}
		if r.Intn(2) == 0 {
			c.Else = randomConstExpr(r, depth-1)
		}
		return c
	case 6:
		return sqlparser.Between{X: randomConstExpr(r, depth-1), Lo: randomConstExpr(r, depth-1),
			Hi: randomConstExpr(r, depth-1), Not: r.Intn(2) == 0}
	case 7:
		items := make([]sqlparser.Expr, 1+r.Intn(3))
		for i := range items {
			items[i] = randomConstExpr(r, depth-1)
		}
		return sqlparser.InList{X: randomConstExpr(r, depth-1), Items: items, Not: r.Intn(2) == 0}
	default:
		return sqlparser.IsNull{X: randomConstExpr(r, depth-1), Not: r.Intn(2) == 0}
	}
}

// FuzzConstExprMatchesRow evaluates a random constant expression as the
// one item of a Plan with no FROM and on the row evaluator: both must fail,
// or both give a value of the same kind and the same SQL literal — the
// bytes a site key is built from. The plan runs twice, so a warm pooled
// execution is checked too.
func FuzzConstExprMatchesRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	f.Add([]byte("ABS(@w - 3)"))
	f.Fuzz(func(t *testing.T, data []byte) {
		x := randomConstExpr(rand.New(&byteSource{data: data}), 4)
		want, werr := EvalConstRow(x, constParams)
		plan := CompileSelect(sqlparser.Select{Items: []sqlparser.SelectItem{{Expr: x}}, Limit: -1})
		for pass := 0; pass < 2; pass++ {
			res, err := plan.ExecCounted(nil, constParams, nil)
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s:\nplan err = %v\nrow err  = %v", x.SQL(), err, werr)
			}
			if err != nil {
				return
			}
			got := res.Columns[0].Value(0)
			res.Release()
			if got.Kind() != want.Kind() || string(got.AppendSQLLiteral(nil)) != string(want.AppendSQLLiteral(nil)) {
				t.Fatalf("%s: plan %v (%v), row %v (%v)", x.SQL(), got, got.Kind(), want, want.Kind())
			}
		}
	})
}
