package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "STRING",
		KindBool:   "BOOL",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.Kind() != KindNull {
		t.Fatalf("zero Value kind = %v", v.Kind())
	}
}

func TestConstructorsAndKinds(t *testing.T) {
	tests := []struct {
		v    Value
		kind Kind
	}{
		{Null, KindNull},
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{Str("x"), KindString},
		{Bool(true), KindBool},
	}
	for _, tt := range tests {
		if tt.v.Kind() != tt.kind {
			t.Errorf("%v kind = %v, want %v", tt.v, tt.v.Kind(), tt.kind)
		}
	}
}

func TestAsInt(t *testing.T) {
	tests := []struct {
		v       Value
		want    int64
		wantErr bool
	}{
		{Int(7), 7, false},
		{Float(7.9), 7, false},
		{Float(-7.9), -7, false},
		{Bool(true), 1, false},
		{Bool(false), 0, false},
		{Str("123"), 123, false},
		{Str("abc"), 0, true},
		{Null, 0, true},
	}
	for _, tt := range tests {
		got, err := tt.v.AsInt()
		if (err != nil) != tt.wantErr {
			t.Errorf("AsInt(%v) err = %v, wantErr = %v", tt.v, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("AsInt(%v) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestAsFloat(t *testing.T) {
	tests := []struct {
		v       Value
		want    float64
		wantErr bool
	}{
		{Int(7), 7, false},
		{Float(7.5), 7.5, false},
		{Bool(true), 1, false},
		{Str("2.25"), 2.25, false},
		{Str("zz"), 0, true},
		{Null, 0, true},
	}
	for _, tt := range tests {
		got, err := tt.v.AsFloat()
		if (err != nil) != tt.wantErr {
			t.Errorf("AsFloat(%v) err = %v, wantErr = %v", tt.v, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("AsFloat(%v) = %g, want %g", tt.v, got, tt.want)
		}
	}
}

func TestAsBool(t *testing.T) {
	tests := []struct {
		v       Value
		want    bool
		wantErr bool
	}{
		{Bool(true), true, false},
		{Bool(false), false, false},
		{Int(0), false, false},
		{Int(-3), true, false},
		{Float(0), false, false},
		{Float(0.5), true, false},
		{Str("true"), false, true},
		{Null, false, true},
	}
	for _, tt := range tests {
		got, err := tt.v.AsBool()
		if (err != nil) != tt.wantErr {
			t.Errorf("AsBool(%v) err = %v, wantErr = %v", tt.v, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("AsBool(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Int(-12), "-12"},
		{Float(2.5), "2.5"},
		{Str("hello"), "hello"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String(%#v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := Str("it's").SQLLiteral(); got != "'it''s'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Int(5).SQLLiteral(); got != "5" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Null.SQLLiteral(); got != "NULL" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

func TestEqualNumericWidening(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if !Null.Equal(Null) {
		t.Error("Null should equal Null")
	}
	if Null.Equal(Int(0)) {
		t.Error("Null should not equal Int(0)")
	}
	if Str("a").Equal(Bool(true)) {
		t.Error("mismatched kinds should not be equal")
	}
	if !Str("a").Equal(Str("a")) {
		t.Error("equal strings must be Equal")
	}
	if !Bool(true).Equal(Bool(true)) {
		t.Error("equal bools must be Equal")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b    Value
		want    int
		wantErr bool
	}{
		{Int(1), Int(2), -1, false},
		{Int(2), Int(2), 0, false},
		{Float(2.5), Int(2), 1, false},
		{Null, Int(0), -1, false},
		{Int(0), Null, 1, false},
		{Null, Null, 0, false},
		{Str("a"), Str("b"), -1, false},
		{Str("b"), Str("a"), 1, false},
		{Str("a"), Str("a"), 0, false},
		{Bool(false), Bool(true), -1, false},
		{Bool(true), Bool(false), 1, false},
		{Bool(true), Bool(true), 0, false},
		{Str("a"), Int(1), 0, true},
		{Bool(true), Str("x"), 0, true},
	}
	for _, tt := range tests {
		got, err := Compare(tt.a, tt.b)
		if (err != nil) != tt.wantErr {
			t.Errorf("Compare(%v,%v) err = %v, wantErr %v", tt.a, tt.b, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	mustInt := func(v Value, err error) int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		n, err := v.AsInt()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	mustFloat := func(v Value, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		f, err := v.AsFloat()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if got := mustInt(Add(Int(2), Int(3))); got != 5 {
		t.Errorf("2+3 = %d", got)
	}
	if got := mustInt(Sub(Int(2), Int(3))); got != -1 {
		t.Errorf("2-3 = %d", got)
	}
	if got := mustInt(Mul(Int(2), Int(3))); got != 6 {
		t.Errorf("2*3 = %d", got)
	}
	if got := mustFloat(Div(Int(1), Int(2))); got != 0.5 {
		t.Errorf("1/2 = %g, want real division", got)
	}
	if got := mustInt(Mod(Int(7), Int(3))); got != 1 {
		t.Errorf("7%%3 = %d", got)
	}
	if got := mustFloat(Add(Int(2), Float(0.5))); got != 2.5 {
		t.Errorf("2+0.5 = %g", got)
	}
	if got := mustFloat(Mod(Float(7.5), Float(2))); got != 1.5 {
		t.Errorf("7.5 mod 2 = %g", got)
	}
	// Int kinds stay Int for + - * %.
	v, _ := Add(Int(1), Int(1))
	if v.Kind() != KindInt {
		t.Errorf("Int+Int kind = %v", v.Kind())
	}
	v, _ = Div(Int(4), Int(2))
	if v.Kind() != KindFloat {
		t.Errorf("Int/Int kind = %v, division is always real", v.Kind())
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	for _, f := range []func(a, b Value) (Value, error){Add, Sub, Mul, Div, Mod} {
		v, err := f(Null, Int(1))
		if err != nil || !v.IsNull() {
			t.Errorf("op(NULL, 1) = %v, %v; want NULL, nil", v, err)
		}
		v, err = f(Int(1), Null)
		if err != nil || !v.IsNull() {
			t.Errorf("op(1, NULL) = %v, %v; want NULL, nil", v, err)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	if _, err := Add(Str("a"), Int(1)); err == nil {
		t.Error("string + int should error")
	}
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("division by zero should error")
	}
	if _, err := Div(Float(1), Float(0)); err == nil {
		t.Error("float division by zero should error")
	}
	if _, err := Mod(Int(1), Int(0)); err == nil {
		t.Error("modulo by zero should error")
	}
	if _, err := Mod(Float(1), Float(0)); err == nil {
		t.Error("float modulo by zero should error")
	}
}

func TestNeg(t *testing.T) {
	v, err := Neg(Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n != -5 {
		t.Errorf("-5 = %d", n)
	}
	v, err = Neg(Float(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.AsFloat(); f != -2.5 {
		t.Errorf("-2.5 = %g", f)
	}
	v, err = Neg(Null)
	if err != nil || !v.IsNull() {
		t.Errorf("Neg(NULL) = %v, %v", v, err)
	}
	if _, err := Neg(Str("x")); err == nil {
		t.Error("Neg(string) should error")
	}
}

// groupKey is v's GROUP BY key: AppendKey's encoding, the one both SQL
// engines group by.
func groupKey(v Value) string { return string(AppendKey(nil, v)) }

func TestKeyGroupsNumericsTogether(t *testing.T) {
	if groupKey(Int(3)) != groupKey(Float(3)) {
		t.Error("Int(3) and Float(3) must share a group key")
	}
	if groupKey(Int(3)) == groupKey(Float(3.5)) {
		t.Error("distinct numerics must not share a key")
	}
	if groupKey(Str("3")) == groupKey(Int(3)) {
		t.Error("string and numeric must not share a key")
	}
	if groupKey(Null) != groupKey(Null) {
		t.Error("NULL keys must match")
	}
	if groupKey(Bool(true)) == groupKey(Bool(false)) {
		t.Error("bool keys must differ")
	}
}

func TestTruthy(t *testing.T) {
	tests := []struct {
		v    Value
		want bool
	}{
		{Null, false},
		{Bool(true), true},
		{Bool(false), false},
		{Int(1), true},
		{Int(0), false},
		{Float(0.1), true},
		{Str("anything"), false},
	}
	for _, tt := range tests {
		if got := tt.v.Truthy(); got != tt.want {
			t.Errorf("Truthy(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

// Property: Add is commutative over numerics.
func TestQuickAddCommutative(t *testing.T) {
	f := func(a, b float64) bool {
		x, err1 := Add(Float(a), Float(b))
		y, err2 := Add(Float(b), Float(a))
		if err1 != nil || err2 != nil {
			return false
		}
		xf, _ := x.AsFloat()
		yf, _ := y.AsFloat()
		return xf == yf || (math.IsNaN(xf) && math.IsNaN(yf))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric over ints.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := Compare(Int(a), Int(b))
		y, err2 := Compare(Int(b), Int(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Neg is an involution over ints.
func TestQuickNegInvolution(t *testing.T) {
	f := func(a int64) bool {
		v, err := Neg(Int(a))
		if err != nil {
			return false
		}
		w, err := Neg(v)
		if err != nil {
			return false
		}
		n, _ := w.AsInt()
		return n == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: round-trip through Key groups exactly numerically-equal values.
func TestQuickKeyConsistentWithEqual(t *testing.T) {
	f := func(a, b int64) bool {
		sameKey := groupKey(Int(a)) == groupKey(Int(b))
		return sameKey == Int(a).Equal(Int(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
