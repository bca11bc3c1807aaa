package vg

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/value"
)

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	if err := RegisterBuiltins(r); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	f := NewFunc("Const7", 0, func(seed uint64, args []value.Value) (value.Value, error) {
		return value.Int(7), nil
	})
	if err := r.Register(f); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Lookup("Const7")
	if !ok || got.Name() != "Const7" || got.Arity() != 0 {
		t.Fatalf("lookup = %v, %v", got, ok)
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Error("missing function should not resolve")
	}
	if err := r.Register(f); err == nil {
		t.Error("duplicate registration should error")
	}
}

func TestInvokeCountsAndArity(t *testing.T) {
	r := newTestRegistry(t)
	if _, err := r.Invoke("Gaussian", 1, []value.Value{value.Int(0)}); err == nil {
		t.Error("wrong arity should error")
	}
	v, err := r.Invoke("Gaussian", 1, []value.Value{value.Float(10), value.Float(0)})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := v.AsFloat()
	if f != 10 {
		t.Errorf("Gaussian(10, 0) = %g, want exactly 10", f)
	}
	// The count is incremented only on successful dispatch; the arity
	// error happens first, so we expect 1.
	if got := r.TotalInvocations(); got != 1 {
		t.Errorf("count = %d", got)
	}
	r.ResetCounters()
	if r.TotalInvocations() != 0 {
		t.Error("reset did not zero counters")
	}
	if _, err := r.Invoke("nope", 1, nil); err == nil {
		t.Error("unknown function should error")
	}
}

func TestBuiltinDeterminism(t *testing.T) {
	r := newTestRegistry(t)
	args := map[string][]value.Value{
		"Gaussian":    {value.Float(5), value.Float(2)},
		"LogNormal":   {value.Float(0), value.Float(0.5)},
		"Poisson":     {value.Float(4)},
		"Uniform":     {value.Float(0), value.Float(10)},
		"Exponential": {value.Float(1)},
		"Bernoulli":   {value.Float(0.5)},
		"Binomial":    {value.Int(20), value.Float(0.3)},
		"Weibull":     {value.Float(1.5), value.Float(2)},
		"Gamma":       {value.Float(2), value.Float(3)},
	}
	for name, a := range args {
		if err := r.CheckDeterminism(name, 12345, a); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCheckDeterminismCatchesViolation(t *testing.T) {
	r := NewRegistry()
	calls := 0
	bad := NewFunc("Bad", 0, func(seed uint64, args []value.Value) (value.Value, error) {
		calls++
		return value.Int(int64(calls)), nil // ignores the seed: nondeterministic
	})
	if err := r.Register(bad); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckDeterminism("Bad", 1, nil); err == nil {
		t.Error("nondeterministic function should be detected")
	}
	if err := r.CheckDeterminism("missing", 1, nil); err == nil {
		t.Error("unknown name should error")
	}
}

func TestBuiltinValidation(t *testing.T) {
	r := newTestRegistry(t)
	cases := []struct {
		name string
		args []value.Value
	}{
		{"Gaussian", []value.Value{value.Float(0), value.Float(-1)}},
		{"LogNormal", []value.Value{value.Float(0), value.Float(-1)}},
		{"Poisson", []value.Value{value.Float(-2)}},
		{"Uniform", []value.Value{value.Float(5), value.Float(1)}},
		{"Exponential", []value.Value{value.Float(0)}},
		{"Binomial", []value.Value{value.Int(-1), value.Float(0.5)}},
		{"Binomial", []value.Value{value.Int(5), value.Float(1.5)}},
		{"Weibull", []value.Value{value.Float(0), value.Float(1)}},
		{"Gamma", []value.Value{value.Float(1), value.Float(0)}},
		{"Gaussian", []value.Value{value.Str("x"), value.Float(1)}},
		{"Poisson", []value.Value{value.Str("x")}},
	}
	for _, c := range cases {
		if _, err := r.Invoke(c.name, 1, c.args); err == nil {
			t.Errorf("%s(%v) should error", c.name, c.args)
		}
	}
}

// TestBuiltinDistributionShapes: each built-in distribution, drawn 20,000
// times through Registry.Invoke at fixed seeds, has the closed-form mean and
// variance within 4 standard errors, at two argument settings per family.
// The settings are chosen so that a family reading its arguments in the
// wrong order fails (Uniform and Binomial reject swapped arguments).
func TestBuiltinDistributionShapes(t *testing.T) {
	r := newTestRegistry(t)
	const n = 20000
	g := math.Gamma
	for _, c := range []struct {
		name       string
		args       []float64
		mean, vari float64
	}{
		{"Gaussian", []float64{3, 0.5}, 3, 0.25},
		{"Gaussian", []float64{-2, 4}, -2, 16},
		{"LogNormal", []float64{0, 0.5}, math.Exp(0.125), (math.Exp(0.25) - 1) * math.Exp(0.25)},
		{"LogNormal", []float64{1, 0.25}, math.Exp(1 + 0.03125), (math.Exp(0.0625) - 1) * math.Exp(2+0.0625)},
		{"Poisson", []float64{6}, 6, 6},
		{"Poisson", []float64{0.7}, 0.7, 0.7},
		{"Uniform", []float64{2, 5}, 3.5, 9.0 / 12},
		{"Uniform", []float64{-3, 1}, -1, 16.0 / 12},
		{"Exponential", []float64{2}, 0.5, 0.25},
		{"Exponential", []float64{0.25}, 4, 16},
		{"Bernoulli", []float64{0.2}, 0.2, 0.16},
		{"Bernoulli", []float64{0.9}, 0.9, 0.09},
		{"Binomial", []float64{10, 0.3}, 3, 2.1},
		{"Binomial", []float64{40, 0.75}, 30, 7.5},
		{"Weibull", []float64{2, 3}, 3 * g(1.5), 9 * (g(2) - g(1.5)*g(1.5))},
		{"Weibull", []float64{0.8, 1.5}, 1.5 * g(2.25), 2.25 * (g(3.5) - g(2.25)*g(2.25))},
		{"Gamma", []float64{2, 3}, 6, 18},
		{"Gamma", []float64{0.5, 4}, 2, 8},
	} {
		label := fmt.Sprintf("%s%v", c.name, c.args)
		args := make([]value.Value, len(c.args))
		for i, a := range c.args {
			args[i] = value.Float(a)
		}
		seq := rng.Key(7, label)
		xs := make([]float64, n)
		var mean float64
		for i := range xs {
			src := seq.At(uint64(i))
			v, err := r.Invoke(c.name, src.Uint64(), args)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if xs[i], err = v.AsFloat(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			mean += xs[i]
		}
		mean /= n
		var m2, m4 float64
		for _, x := range xs {
			d := (x - mean) * (x - mean)
			m2 += d
			m4 += d * d
		}
		m2 /= n - 1
		m4 /= n
		if se := math.Sqrt(m2 / n); math.Abs(mean-c.mean) > 4*se {
			t.Errorf("%s: mean %g, want %g (4 SE = %g)", label, mean, c.mean, 4*se)
		}
		if se := math.Sqrt((m4 - m2*m2) / n); math.Abs(m2-c.vari) > 4*se {
			t.Errorf("%s: variance %g, want %g (4 SE = %g)", label, m2, c.vari, 4*se)
		}
	}
}

func TestConcurrentInvocation(t *testing.T) {
	r := newTestRegistry(t)
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := r.Invoke("Gaussian", uint64(w*perWorker+i), []value.Value{value.Float(0), value.Float(1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.TotalInvocations(); got != workers*perWorker {
		t.Errorf("concurrent count = %d, want %d", got, workers*perWorker)
	}
}

func TestErrorsMentionFunctionName(t *testing.T) {
	r := newTestRegistry(t)
	_, err := r.Invoke("Gamma", 1, []value.Value{value.Float(-1), value.Float(1)})
	if err == nil || !strings.Contains(err.Error(), "Gamma") {
		t.Errorf("error should name the function: %v", err)
	}
}

// walk is a SeriesFunction fixture: Walk(step, start) is a Gaussian random
// walk from start. With skew set, its chain draws each step from the next
// step's stream — deterministic, but disagreeing with its own scalar form.
type walk struct{ skew uint64 }

func (w *walk) Name() string                   { return "Walk" }
func (w *walk) Arity() int                     { return 2 }
func (w *walk) SeriesAxis() (axis, length int) { return 0, 10 }

func (w *walk) Generate(seed uint64, args []value.Value) (value.Value, error) {
	step, err := args[0].AsInt()
	if err != nil || step < 0 || step >= 10 {
		return value.Null, fmt.Errorf("vg: Walk step %v outside [0, 10)", args[0])
	}
	var out [10]float64
	if err := w.run(seed, args, out[:step+1], 0); err != nil {
		return value.Null, err
	}
	return value.Float(out[step]), nil
}

func (w *walk) Series(seed uint64, args []value.Value, out []float64) error {
	return w.run(seed, args, out, w.skew)
}

func (w *walk) run(seed uint64, args []value.Value, out []float64, skew uint64) error {
	x, err := args[1].AsFloat()
	if err != nil {
		return err
	}
	steps := rng.Key(seed, "walk")
	for p := range out {
		if p > 0 {
			src := steps.At(uint64(p) + skew)
			x += src.Norm()
		}
		out[p] = x
	}
	return nil
}

func TestCheckDeterminismSeriesContract(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&walk{}); err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step < 10; step++ {
		if err := r.CheckDeterminism("Walk", 3, []value.Value{value.Int(step), value.Float(1)}); err != nil {
			t.Errorf("consistent series flagged at step %d: %v", step, err)
		}
	}
	bad := NewRegistry()
	if err := bad.Register(&walk{skew: 1}); err != nil {
		t.Fatal(err)
	}
	// Step 0 is the start value on both forms; every later step disagrees.
	if err := bad.CheckDeterminism("Walk", 3, []value.Value{value.Int(0), value.Float(1)}); err != nil {
		t.Errorf("step 0 agrees on both forms, got %v", err)
	}
	err := bad.CheckDeterminism("Walk", 3, []value.Value{value.Int(4), value.Float(1)})
	if err == nil || !strings.Contains(err.Error(), "disagrees with its scalar form at position 4") {
		t.Errorf("inconsistent series not caught: %v", err)
	}
}

// lattice is an OverlayFunction fixture: Lattice(step, start) is a walk
// on the integers from start whose base is its steps, one byte each (0..4
// for -2..+2). With broken set, its overlay reads each step from the next
// cell of the base — deterministic, but not the chain Series simulates.
type lattice struct{ broken bool }

func (l *lattice) Name() string                   { return "Lattice" }
func (l *lattice) Arity() int                     { return 2 }
func (l *lattice) SeriesAxis() (axis, length int) { return 0, 10 }
func (l *lattice) BaseLen() int                   { return 9 }

func (l *lattice) Generate(seed uint64, args []value.Value) (value.Value, error) {
	step, err := args[0].AsInt()
	if err != nil || step < 0 || step >= 10 {
		return value.Null, fmt.Errorf("vg: Lattice step %v outside [0, 10)", args[0])
	}
	var out [10]float64
	if err := l.Series(seed, args, out[:]); err != nil {
		return value.Null, err
	}
	return value.Float(out[step]), nil
}

func (l *lattice) Series(seed uint64, args []value.Value, out []float64) error {
	var base [9]byte
	l.Base(seed, base[:])
	return l.replay(args, base[:], out, 0)
}

func (l *lattice) Base(seed uint64, out []byte) {
	steps := rng.Key(seed, "lattice")
	for p := range out {
		src := steps.At(uint64(p))
		out[p] = byte(src.Intn(5))
	}
}

func (l *lattice) Overlay(seed uint64, args []value.Value, base []byte, out []float64) error {
	skew := 0
	if l.broken {
		skew = 1
	}
	return l.replay(args, base, out, skew)
}

func (l *lattice) replay(args []value.Value, base []byte, out []float64, skew int) error {
	x, err := args[1].AsFloat()
	if err != nil {
		return err
	}
	for p := range out {
		if p > 0 {
			x += float64(base[(p-1+skew)%len(base)]) - 2
		}
		out[p] = x
	}
	return nil
}

func TestCheckDeterminismOverlayContract(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&lattice{}); err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step < 10; step++ {
		if err := r.CheckDeterminism("Lattice", 3, []value.Value{value.Int(step), value.Float(1)}); err != nil {
			t.Errorf("consistent overlay flagged at step %d: %v", step, err)
		}
	}
	// A broken overlay agrees with Generate, which reads Series, so only
	// the overlay check can catch it — at every step, since it compares
	// whole chains.
	bad := NewRegistry()
	if err := bad.Register(&lattice{broken: true}); err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step < 10; step++ {
		err := bad.CheckDeterminism("Lattice", 3, []value.Value{value.Int(step), value.Float(1)})
		if err == nil || !strings.Contains(err.Error(), "overlay over its base disagrees with Series") {
			t.Fatalf("broken overlay not caught at step %d: %v", step, err)
		}
	}
}

func TestSeriesPosition(t *testing.T) {
	f := &walk{}
	cases := []struct {
		axis value.Value
		pos  int
		ok   bool
	}{
		{value.Int(0), 0, true},
		{value.Int(9), 9, true},
		{value.Int(10), 0, false},
		{value.Int(-1), 0, false},
		{value.Float(3), 0, false},
		{value.Str("3"), 0, false},
	}
	for _, c := range cases {
		pos, ok := SeriesPosition(f, []value.Value{c.axis, value.Float(0)})
		if pos != c.pos || ok != c.ok {
			t.Errorf("SeriesPosition(%v) = %d, %v; want %d, %v", c.axis, pos, ok, c.pos, c.ok)
		}
	}
	if _, ok := SeriesPosition(f, nil); ok {
		t.Error("missing axis argument must not select a position")
	}
}

// Bind counts the n samples its caller is about to deliver in one step;
// Invoke is the n = 1 case.
func TestBindCountsSamples(t *testing.T) {
	r := newTestRegistry(t)
	f, err := r.Bind("Gaussian", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "Gaussian" || r.TotalInvocations() != 64 {
		t.Fatalf("Bind(64) counted %d", r.TotalInvocations())
	}
	if _, err := r.Bind("Gaussian", 1, 5); err == nil || r.TotalInvocations() != 64 {
		t.Errorf("arity mismatch must error without counting: %v, count %d", err, r.TotalInvocations())
	}
	if _, err := r.Bind("nope", 0, 1); err == nil {
		t.Error("unknown function should error")
	}
}
