package mc

import (
	"context"
	"math"
	"testing"

	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlparser"
)

// Differential tests: tracing must observe a render, never change it. The
// five bundled example scenarios are evaluated twice — once with no span
// on the context (the disabled path) and once under a live trace — and the
// outputs must be bit-identical, on both the single-range path and a
// fan-out to in-process workers.

// compileExamples compiles the bundled example scenarios against the bench
// fixture registry (real VG models with deterministic seeds).
func compileExamples(tb testing.TB) map[string]*scenario.Scenario {
	tb.Helper()
	reg, err := benchfix.Registry()
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string]*scenario.Scenario)
	for _, name := range sqlparser.ExampleScenarioNames() {
		scn, err := scenario.Compile(sqlparser.ExampleScenarios()[name], reg)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		if name == "serverfleet" {
			regions, err := benchfix.RegionsTable()
			if err != nil {
				tb.Fatal(err)
			}
			if err := scn.AddTable(regions); err != nil {
				tb.Fatal(err)
			}
		}
		out[name] = scn
	}
	return out
}

// sameResult asserts two point results carry bit-identical sample vectors.
func sameResult(t *testing.T, name string, plain, traced *PointResult) {
	t.Helper()
	if plain.Worlds != traced.Worlds {
		t.Fatalf("%s: worlds %d != %d", name, plain.Worlds, traced.Worlds)
	}
	if len(plain.Columns) != len(traced.Columns) {
		t.Fatalf("%s: column count %d != %d", name, len(plain.Columns), len(traced.Columns))
	}
	for col, a := range plain.Columns {
		b, ok := traced.Columns[col]
		if !ok {
			t.Fatalf("%s: traced result lacks column %q", name, col)
		}
		if len(a) != len(b) {
			t.Fatalf("%s/%s: length %d != %d", name, col, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s/%s[%d]: %v != %v (not bit-identical)", name, col, i, a[i], b[i])
			}
		}
	}
}

func TestTracedEvaluationBitIdentical(t *testing.T) {
	for name, scn := range compileExamples(t) {
		for _, shards := range []int{1, 4} {
			opts := Options{Worlds: 120, Shards: shards}
			if shards > 1 {
				opts.Runner = workerRunner(scn, Options{})
			}
			pt := scn.DefaultPoint()

			plain, err := NewEvaluator(scn, opts).evaluatePoint(context.Background(), pt)
			if err != nil {
				t.Fatalf("%s (shards=%d, untraced): %v", name, shards, err)
			}

			tr := obs.New("render", obs.NewID())
			ctx := obs.With(context.Background(), tr.Root())
			traced, err := NewEvaluator(scn, opts).evaluatePoint(ctx, pt)
			if err != nil {
				t.Fatalf("%s (shards=%d, traced): %v", name, shards, err)
			}
			tr.End()

			sameResult(t, name, plain, traced)

			// The trace must actually have recorded the render: a point span
			// with at least simulate and plan-execute stages under it.
			seen := map[string]bool{}
			tr.Tree().Visit(func(_ int, n *obs.Node) { seen[n.Name] = true })
			for _, want := range []string{"point", "simulate", "plan-execute"} {
				if !seen[want] {
					t.Errorf("%s (shards=%d): trace has no %q span; got %v", name, shards, want, seen)
				}
			}
		}
	}
}

// BenchmarkTraceDisabledOverhead measures the full render path with no
// span on the context (every instrumented call hits the nil fast path)
// against the same render under a live trace. The "untraced" variant's
// allocation count must not grow when instrumentation is added to the
// pipeline; obs.TestNilDisabledPath pins the nil calls at 0 allocs.
func BenchmarkTraceDisabledOverhead(b *testing.B) {
	scn := compileBenchFigure2(b)
	pt := scn.DefaultPoint()
	b.Run("untraced", func(b *testing.B) {
		ev := NewEvaluator(scn, Options{Worlds: 100})
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ev.evaluatePoint(ctx, pt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		ev := NewEvaluator(scn, Options{Worlds: 100})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := obs.New("render", "")
			ctx := obs.With(context.Background(), tr.Root())
			if _, err := ev.evaluatePoint(ctx, pt); err != nil {
				b.Fatal(err)
			}
			tr.End()
		}
	})
}

func compileBenchFigure2(tb testing.TB) *scenario.Scenario {
	tb.Helper()
	reg, err := benchfix.Registry()
	if err != nil {
		tb.Fatal(err)
	}
	scn, err := scenario.Compile(sqlparser.ExampleScenarios()[sqlparser.ExampleScenarioNames()[0]], reg)
	if err != nil {
		tb.Fatal(err)
	}
	return scn
}
