package guide

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
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

// At returns the point for the given per-parameter value indices.
// Production code walks the grid with Points; tests address single points.
func (s *Space) At(indices []int) (Point, error) {
	if len(indices) != len(s.Params) {
		return nil, fmt.Errorf("guide: got %d indices for %d parameters", len(indices), len(s.Params))
	}
	p := make(Point, len(s.Params))
	for i, def := range s.Params {
		if indices[i] < 0 || indices[i] >= len(def.Values) {
			return nil, fmt.Errorf("guide: index %d out of range for @%s", indices[i], def.Name)
		}
		p[def.Name] = def.Values[indices[i]]
	}
	return p, nil
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
	// A pin for the axis itself is overridden, not an error.
	pts, err = s.Sweep("b", Point{"a": value.Int(2), "b": value.Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || !pts[1]["b"].Equal(value.Int(20)) || !pts[1]["a"].Equal(value.Int(2)) {
		t.Errorf("sweep over b = %v", pts)
	}
	for _, tc := range []struct {
		axis   string
		pinned Point
		want   string
	}{
		{"z", Point{}, "guide: unknown sweep axis @z"},
		{"a", Point{}, "guide: sweep is missing a pin for @b"},
		{"b", Point{"b": value.Int(10)}, "guide: sweep is missing a pin for @a"},
		{"a", Point{"b": value.Int(10), "zzz": value.Int(1)}, "guide: pin for undeclared parameter @zzz"},
		// A missing pin is reported before an undeclared one.
		{"a", Point{"zzz": value.Int(1)}, "guide: sweep is missing a pin for @b"},
	} {
		if _, err := s.Sweep(tc.axis, tc.pinned); err == nil || err.Error() != tc.want {
			t.Errorf("Sweep(%q, %v) error = %v, want %q", tc.axis, tc.pinned, err, tc.want)
		}
	}
}

// TestSweepInto: a sweep into an earlier result refills its maps in place —
// the same maps, holding exactly the new sweep's keys.
func TestSweepInto(t *testing.T) {
	s := demoSpace(t)
	// Sweeping b (two values) over a result of three points keeps the third
	// map, beyond the returned length, for a later sweep.
	first, err := s.Sweep("a", Point{"b": value.Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	held := slices.Clone(first)
	pts, err := s.SweepInto(first, "b", Point{"a": value.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	for i, p := range pts {
		if reflect.ValueOf(p).UnsafePointer() != reflect.ValueOf(held[i]).UnsafePointer() {
			t.Errorf("sweep[%d] is a new map, want the held one", i)
		}
		want, _ := s.Sweep("b", Point{"a": value.Int(2)})
		if !maps.EqualFunc(p, want[i], value.Value.Equal) {
			t.Errorf("sweep[%d] = %v, want %v", i, p, want[i])
		}
	}
	again, err := s.SweepInto(pts, "a", Point{"b": value.Int(20)})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range again {
		if reflect.ValueOf(p).UnsafePointer() != reflect.ValueOf(held[i]).UnsafePointer() {
			t.Errorf("second refill: sweep[%d] is a new map, want the held one", i)
		}
		if len(p) != 2 || !p["a"].Equal(value.Int(int64(i))) || !p["b"].Equal(value.Int(20)) {
			t.Errorf("second refill: sweep[%d] = %v", i, p)
		}
	}
	if _, err := s.SweepInto(again, "z", Point{}); err == nil {
		t.Error("an unknown axis should error")
	}
}

func TestExhaustiveCoversGridOnce(t *testing.T) {
	s := demoSpace(t)
	pts := s.Points()
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
	if pts := empty.Points(); len(pts) != 0 {
		t.Errorf("empty space points = %d", len(pts))
	}
}
