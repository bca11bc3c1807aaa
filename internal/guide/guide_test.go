package guide

import (
	"testing"

	"fuzzyprophet/internal/value"
)

func ints(vals ...int64) []value.Value {
	out := make([]value.Value, len(vals))
	for i, v := range vals {
		out[i] = value.Int(v)
	}
	return out
}

func demoSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace([]ParamDef{
		{Name: "a", Values: ints(0, 1, 2)},
		{Name: "b", Values: ints(10, 20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace([]ParamDef{{Name: "", Values: ints(1)}}); err == nil {
		t.Error("empty name should error")
	}
	if _, err := NewSpace([]ParamDef{{Name: "a", Values: ints(1)}, {Name: "a", Values: ints(2)}}); err == nil {
		t.Error("duplicate name should error")
	}
	if _, err := NewSpace([]ParamDef{{Name: "a"}}); err == nil {
		t.Error("no values should error")
	}
}

func TestSpaceSizeAndIndex(t *testing.T) {
	s := demoSpace(t)
	if s.Size() != 6 {
		t.Errorf("size = %d", s.Size())
	}
	if s.Index("a") != 0 || s.Index("b") != 1 || s.Index("z") != -1 {
		t.Error("Index wrong")
	}
	empty, _ := NewSpace(nil)
	if empty.Size() != 0 {
		t.Error("empty space size should be 0")
	}
}

func TestSpaceAt(t *testing.T) {
	s := demoSpace(t)
	p, err := s.At([]int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !p["a"].Equal(value.Int(2)) || !p["b"].Equal(value.Int(20)) {
		t.Errorf("point = %v", p)
	}
	if _, err := s.At([]int{0}); err == nil {
		t.Error("wrong arity should error")
	}
	if _, err := s.At([]int{5, 0}); err == nil {
		t.Error("out of range should error")
	}
}

func TestIndexOfValue(t *testing.T) {
	s := demoSpace(t)
	if s.IndexOfValue("b", value.Int(20)) != 1 {
		t.Error("IndexOfValue wrong")
	}
	if s.IndexOfValue("b", value.Int(99)) != -1 {
		t.Error("missing value should be -1")
	}
	if s.IndexOfValue("z", value.Int(0)) != -1 {
		t.Error("missing param should be -1")
	}
}

func TestSweep(t *testing.T) {
	s := demoSpace(t)
	pts, err := s.Sweep("a", Point{"b": value.Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	for i, p := range pts {
		if !p["a"].Equal(value.Int(int64(i))) || !p["b"].Equal(value.Int(10)) {
			t.Errorf("sweep[%d] = %v", i, p)
		}
	}
	if _, err := s.Sweep("z", Point{}); err == nil {
		t.Error("unknown axis should error")
	}
	if _, err := s.Sweep("a", Point{}); err == nil {
		t.Error("missing pin should error")
	}
	if _, err := s.Sweep("a", Point{"b": value.Int(10), "zzz": value.Int(1)}); err == nil {
		t.Error("pin for undeclared parameter should error")
	}
}

func TestExhaustiveCoversGridOnce(t *testing.T) {
	s := demoSpace(t)
	pts := Collect(NewExhaustive(s))
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		key := p["a"].String() + "," + p["b"].String()
		if seen[key] {
			t.Fatalf("duplicate point %s", key)
		}
		seen[key] = true
	}
	// Odometer order: last parameter varies fastest.
	if !pts[0]["b"].Equal(value.Int(10)) || !pts[1]["b"].Equal(value.Int(20)) {
		t.Errorf("order wrong: %v %v", pts[0], pts[1])
	}
	if !pts[0]["a"].Equal(value.Int(0)) || !pts[2]["a"].Equal(value.Int(1)) {
		t.Errorf("order wrong: %v %v", pts[0], pts[2])
	}
}

func TestExhaustiveEmptySpace(t *testing.T) {
	empty, _ := NewSpace(nil)
	if pts := Collect(NewExhaustive(empty)); len(pts) != 0 {
		t.Errorf("empty space points = %d", len(pts))
	}
}

func TestRandomCoversWithoutReplacement(t *testing.T) {
	s := demoSpace(t)
	pts := Collect(NewRandom(s, 0, 42))
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		key := p["a"].String() + "," + p["b"].String()
		if seen[key] {
			t.Fatalf("duplicate point %s", key)
		}
		seen[key] = true
	}
}

func TestRandomBudgetAndDeterminism(t *testing.T) {
	s := demoSpace(t)
	a := Collect(NewRandom(s, 3, 7))
	b := Collect(NewRandom(s, 3, 7))
	if len(a) != 3 {
		t.Fatalf("budget ignored: %d", len(a))
	}
	for i := range a {
		if !a[i]["a"].Equal(b[i]["a"]) || !a[i]["b"].Equal(b[i]["b"]) {
			t.Fatal("random strategy not deterministic in its seed")
		}
	}
}

func TestNeighborhoodRings(t *testing.T) {
	s, err := NewSpace([]ParamDef{
		{Name: "x", Values: ints(0, 1, 2, 3, 4)},
		{Name: "y", Values: ints(0, 1, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	focus := Point{"x": value.Int(2), "y": value.Int(1)}
	n, err := NewNeighborhood(s, focus, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := Collect(n)
	// Focus + 2 x-neighbors + 2 y-neighbors.
	if len(pts) != 5 {
		t.Fatalf("ring points = %d: %v", len(pts), pts)
	}
	if !pts[0]["x"].Equal(value.Int(2)) || !pts[0]["y"].Equal(value.Int(1)) {
		t.Error("focus must come first")
	}
}

func TestNeighborhoodEdgesAndAxes(t *testing.T) {
	s := demoSpace(t)
	// Focus at a corner: out-of-range neighbors are dropped.
	focus := Point{"a": value.Int(0), "b": value.Int(10)}
	n, err := NewNeighborhood(s, focus, 1, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	pts := Collect(n)
	if len(pts) != 2 { // focus + a=1
		t.Fatalf("points = %v", pts)
	}
	if _, err := NewNeighborhood(s, Point{"a": value.Int(0)}, 1, nil); err == nil {
		t.Error("missing focus coordinate should error")
	}
	if _, err := NewNeighborhood(s, Point{"a": value.Int(9), "b": value.Int(10)}, 1, nil); err == nil {
		t.Error("off-grid focus should error")
	}
	if _, err := NewNeighborhood(s, focus, 1, []string{"zzz"}); err == nil {
		t.Error("unknown axis should error")
	}
}
