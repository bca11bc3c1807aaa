package sqlengine

import (
	"fmt"
	"math"
	"strings"

	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// callBuiltin implements the engine's scalar builtin functions.
func callBuiltin(name string, args []value.Value) (value.Value, error) {
	oneFloat := func() (float64, bool, error) {
		if len(args) != 1 {
			return 0, false, fmt.Errorf("sqlengine: %s expects 1 argument, got %d", name, len(args))
		}
		if args[0].IsNull() {
			return 0, true, nil
		}
		f, err := args[0].AsFloat()
		return f, false, err
	}
	switch name {
	case "ABS":
		f, isNull, err := oneFloat()
		if err != nil || isNull {
			return value.Null, err
		}
		return value.Float(math.Abs(f)), nil
	case "SQRT":
		f, isNull, err := oneFloat()
		if err != nil || isNull {
			return value.Null, err
		}
		if f < 0 {
			return value.Null, fmt.Errorf("sqlengine: SQRT of negative value %g", f)
		}
		return value.Float(math.Sqrt(f)), nil
	case "EXP":
		f, isNull, err := oneFloat()
		if err != nil || isNull {
			return value.Null, err
		}
		return value.Float(math.Exp(f)), nil
	case "LN":
		f, isNull, err := oneFloat()
		if err != nil || isNull {
			return value.Null, err
		}
		if f <= 0 {
			return value.Null, fmt.Errorf("sqlengine: LN of non-positive value %g", f)
		}
		return value.Float(math.Log(f)), nil
	case "FLOOR":
		f, isNull, err := oneFloat()
		if err != nil || isNull {
			return value.Null, err
		}
		return value.Float(math.Floor(f)), nil
	case "CEILING":
		f, isNull, err := oneFloat()
		if err != nil || isNull {
			return value.Null, err
		}
		return value.Float(math.Ceil(f)), nil
	case "ROUND":
		f, isNull, err := oneFloat()
		if err != nil || isNull {
			return value.Null, err
		}
		return value.Float(math.Round(f)), nil
	case "SIGN":
		f, isNull, err := oneFloat()
		if err != nil || isNull {
			return value.Null, err
		}
		switch {
		case f > 0:
			return value.Int(1), nil
		case f < 0:
			return value.Int(-1), nil
		default:
			return value.Int(0), nil
		}
	case "POWER":
		if len(args) != 2 {
			return value.Null, fmt.Errorf("sqlengine: POWER expects 2 arguments, got %d", len(args))
		}
		if args[0].IsNull() || args[1].IsNull() {
			return value.Null, nil
		}
		a, err := args[0].AsFloat()
		if err != nil {
			return value.Null, err
		}
		b, err := args[1].AsFloat()
		if err != nil {
			return value.Null, err
		}
		return value.Float(math.Pow(a, b)), nil
	case "LEAST", "GREATEST":
		if len(args) == 0 {
			return value.Null, fmt.Errorf("sqlengine: %s expects at least 1 argument", name)
		}
		best := value.Null
		for _, a := range args {
			if a.IsNull() {
				continue
			}
			if best.IsNull() {
				best = a
				continue
			}
			c, err := value.Compare(a, best)
			if err != nil {
				return value.Null, err
			}
			if (name == "LEAST" && c < 0) || (name == "GREATEST" && c > 0) {
				best = a
			}
		}
		return best, nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null, nil
	case "UPPER", "LOWER", "LTRIM", "RTRIM", "TRIM":
		if len(args) != 1 {
			return value.Null, fmt.Errorf("sqlengine: %s expects 1 argument, got %d", name, len(args))
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		s := args[0].AsString()
		switch name {
		case "UPPER":
			return value.Str(strings.ToUpper(s)), nil
		case "LOWER":
			return value.Str(strings.ToLower(s)), nil
		case "LTRIM":
			return value.Str(strings.TrimLeft(s, " \t")), nil
		case "RTRIM":
			return value.Str(strings.TrimRight(s, " \t")), nil
		default:
			return value.Str(strings.TrimSpace(s)), nil
		}
	case "LEN":
		if len(args) != 1 {
			return value.Null, fmt.Errorf("sqlengine: LEN expects 1 argument, got %d", len(args))
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		return value.Int(int64(len(args[0].AsString()))), nil
	case "SUBSTRING":
		// SUBSTRING(s, start, length) with 1-based start (T-SQL).
		if len(args) != 3 {
			return value.Null, fmt.Errorf("sqlengine: SUBSTRING expects 3 arguments, got %d", len(args))
		}
		if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
			return value.Null, nil
		}
		s := args[0].AsString()
		start, err := args[1].AsInt()
		if err != nil {
			return value.Null, err
		}
		length, err := args[2].AsInt()
		if err != nil {
			return value.Null, err
		}
		if length < 0 {
			return value.Null, fmt.Errorf("sqlengine: SUBSTRING length must be non-negative, got %d", length)
		}
		lo := start - 1
		if lo < 0 {
			lo = 0
		}
		if lo > int64(len(s)) {
			lo = int64(len(s))
		}
		hi := lo + length
		if hi > int64(len(s)) {
			hi = int64(len(s))
		}
		return value.Str(s[lo:hi]), nil
	case "CONCAT":
		// T-SQL CONCAT: NULL arguments become empty strings.
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				continue
			}
			sb.WriteString(a.AsString())
		}
		return value.Str(sb.String()), nil
	case "REPLACE":
		if len(args) != 3 {
			return value.Null, fmt.Errorf("sqlengine: REPLACE expects 3 arguments, got %d", len(args))
		}
		if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
			return value.Null, nil
		}
		return value.Str(strings.ReplaceAll(args[0].AsString(), args[1].AsString(), args[2].AsString())), nil
	default:
		return value.Null, fmt.Errorf("sqlengine: unknown function %q", name)
	}
}

// isAggregateName reports whether name is one of the engine's aggregates
// (standard or probabilistic).
func isAggregateName(name string) bool {
	switch name {
	case "SUM", "AVG", "COUNT", "MIN", "MAX", "STDDEV",
		"EXPECT", "EXPECT_STDDEV", "PROB":
		return true
	default:
		return false
	}
}

// HasAggregate reports whether the expression contains an aggregate call.
func HasAggregate(x sqlparser.Expr) bool {
	found := false
	sqlparser.WalkExpr(x, func(e sqlparser.Expr) {
		if f, ok := e.(sqlparser.FuncCall); ok && isAggregateName(f.Name) {
			found = true
		}
	})
	return found
}
