// Package value implements the dynamic value system shared by the Fuzzy
// Prophet SQL dialect parser and the in-memory relational engine.
//
// A Value is a tagged union over the SQL types used by Fuzzy Prophet
// scenarios: NULL, INT (64-bit), FLOAT (64-bit), STRING and BOOL. The
// package defines the coercion, comparison and arithmetic rules the engine
// relies on; they follow T-SQL conventions where that matters (NULL
// propagation, numeric widening from INT to FLOAT) and are deliberately
// small everywhere else.
package value

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported runtime kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable dynamically-typed SQL value.
//
// The zero Value is NULL, which keeps freshly allocated rows useful without
// initialization.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null is the NULL value.
var Null = Value{}

// Int returns an INT value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a FLOAT value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str returns a STRING value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a BOOL value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumeric reports whether v is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsInt returns the value as an int64. FLOATs are truncated toward zero,
// BOOLs map to 0/1. It returns an error for NULL and STRING values that do
// not parse as integers.
func (v Value) AsInt() (int64, error) {
	switch v.kind {
	case KindInt:
		return v.i, nil
	case KindFloat:
		return int64(v.f), nil
	case KindBool:
		if v.b {
			return 1, nil
		}
		return 0, nil
	case KindString:
		n, err := strconv.ParseInt(v.s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("value: cannot convert %q to INT", v.s)
		}
		return n, nil
	default:
		return 0, fmt.Errorf("value: cannot convert %s to INT", v.kind)
	}
}

// AsFloat returns the value as a float64. It returns an error for NULL and
// STRING values that do not parse as numbers.
func (v Value) AsFloat() (float64, error) {
	switch v.kind {
	case KindInt:
		return float64(v.i), nil
	case KindFloat:
		return v.f, nil
	case KindBool:
		if v.b {
			return 1, nil
		}
		return 0, nil
	case KindString:
		f, err := strconv.ParseFloat(v.s, 64)
		if err != nil {
			return 0, fmt.Errorf("value: cannot convert %q to FLOAT", v.s)
		}
		return f, nil
	default:
		return 0, fmt.Errorf("value: cannot convert %s to FLOAT", v.kind)
	}
}

// AsBool returns the value as a bool. Numeric values are true when nonzero.
func (v Value) AsBool() (bool, error) {
	switch v.kind {
	case KindBool:
		return v.b, nil
	case KindInt:
		return v.i != 0, nil
	case KindFloat:
		return v.f != 0, nil
	default:
		return false, fmt.Errorf("value: cannot convert %s to BOOL", v.kind)
	}
}

// AsString returns the value rendered as a string; NULL renders as "NULL".
func (v Value) AsString() string { return v.String() }

// String renders the value in SQL literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.kind))
	}
}

// SQLLiteral renders the value as a literal the parser would accept
// (strings quoted, NULL as NULL).
func (v Value) SQLLiteral() string {
	if v.kind == KindString {
		return "'" + escapeSingle(v.s) + "'"
	}
	return v.String()
}

func escapeSingle(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

// Equal reports deep equality with numeric widening: Int(3) equals
// Float(3.0). NULL equals only NULL (this is Go-level equality for tests and
// map keys, not three-valued SQL equality; see Compare for that).
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return v.kind == o.kind
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return a == b
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b == o.b
	default:
		return false
	}
}

// Compare orders two values. It returns -1, 0 or +1; NULL sorts before
// everything, numerics compare by widening, strings lexicographically and
// bools false<true. Comparing a non-NULL non-numeric against a numeric is an
// error.
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0, nil
		case a.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("value: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindString:
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		default:
			return 0, nil
		}
	case KindBool:
		switch {
		case !a.b && b.b:
			return -1, nil
		case a.b && !b.b:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("value: cannot compare %s values", a.kind)
	}
}

// arith applies a binary arithmetic operator with SQL NULL propagation and
// INT→FLOAT widening. Integer arithmetic stays integral except for division,
// which follows the scenario language's convention of real division.
func arith(a, b Value, op byte) (Value, error) {
	if a.kind == KindNull || b.kind == KindNull {
		return Null, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("value: arithmetic %c needs numeric operands, got %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt && op != '/' {
		switch op {
		case '+':
			return Int(a.i + b.i), nil
		case '-':
			return Int(a.i - b.i), nil
		case '*':
			return Int(a.i * b.i), nil
		case '%':
			if b.i == 0 {
				return Null, fmt.Errorf("value: modulo by zero")
			}
			return Int(a.i % b.i), nil
		}
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	switch op {
	case '+':
		return Float(af + bf), nil
	case '-':
		return Float(af - bf), nil
	case '*':
		return Float(af * bf), nil
	case '/':
		if bf == 0 {
			return Null, fmt.Errorf("value: division by zero")
		}
		return Float(af / bf), nil
	case '%':
		if bf == 0 {
			return Null, fmt.Errorf("value: modulo by zero")
		}
		return Float(math.Mod(af, bf)), nil
	default:
		return Null, fmt.Errorf("value: unknown arithmetic operator %c", op)
	}
}

// Add returns a+b with NULL propagation.
func Add(a, b Value) (Value, error) { return arith(a, b, '+') }

// Sub returns a-b with NULL propagation.
func Sub(a, b Value) (Value, error) { return arith(a, b, '-') }

// Mul returns a*b with NULL propagation.
func Mul(a, b Value) (Value, error) { return arith(a, b, '*') }

// Div returns a/b (always real division) with NULL propagation.
func Div(a, b Value) (Value, error) { return arith(a, b, '/') }

// Mod returns a%b with NULL propagation.
func Mod(a, b Value) (Value, error) { return arith(a, b, '%') }

// Neg returns -a with NULL propagation.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return Int(-a.i), nil
	case KindFloat:
		return Float(-a.f), nil
	default:
		return Null, fmt.Errorf("value: cannot negate %s", a.kind)
	}
}

// AppendKey appends v's canonical key encoding to dst and returns the
// extended slice. The encoding is shared between the row engine's boxed
// KeyString and the columnar engine's unboxed key builders (see
// sqlengine.Column), so GROUP BY and DISTINCT group identically on both
// paths: numerically equal INT and FLOAT values share an encoding, strings
// are length-prefixed so embedded separators cannot collide.
func AppendKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 'n', ';')
	case KindInt, KindFloat:
		f, _ := v.AsFloat()
		dst = append(dst, 'f')
		dst = strconv.AppendFloat(dst, f, 'b', -1, 64)
		return append(dst, ';')
	case KindString:
		return AppendStringKey(dst, v.s)
	case KindBool:
		if v.b {
			return append(dst, 'b', '1', ';')
		}
		return append(dst, 'b', '0', ';')
	default:
		return dst
	}
}

// AppendFloatKey appends the key encoding of a non-NULL numeric value.
func AppendFloatKey(dst []byte, f float64) []byte {
	dst = append(dst, 'f')
	dst = strconv.AppendFloat(dst, f, 'b', -1, 64)
	return append(dst, ';')
}

// AppendStringKey appends the key encoding of a non-NULL string value.
func AppendStringKey(dst []byte, s string) []byte {
	dst = append(dst, 's')
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	dst = append(dst, s...)
	return append(dst, ';')
}

// AppendBoolKey appends the key encoding of a non-NULL bool value.
func AppendBoolKey(dst []byte, b bool) []byte {
	if b {
		return append(dst, 'b', '1', ';')
	}
	return append(dst, 'b', '0', ';')
}

// AppendNullKey appends the key encoding of NULL.
func AppendNullKey(dst []byte) []byte { return append(dst, 'n', ';') }

// KeyString returns a canonical string key for a tuple of values, suitable
// as a composite GROUP BY key. See AppendKey for the encoding.
func KeyString(vs []Value) string {
	var sb []byte
	for _, v := range vs {
		sb = AppendKey(sb, v)
	}
	return string(sb)
}

// Truthy is a convenience that treats NULL as false (SQL WHERE semantics).
func (v Value) Truthy() bool {
	if v.kind == KindNull {
		return false
	}
	b, err := v.AsBool()
	if err != nil {
		return false
	}
	return b
}
