package mc

import (
	"context"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
)

// warmJoinSweep returns a serverfleet evaluator (400 worlds × 4 regions, so
// 1600-row output columns) reading only its GRAPH columns, and the 53 points
// of its @current sweep, each evaluated once so every site is cached.
func warmJoinSweep(tb testing.TB) (*Evaluator, []guide.Point) {
	tb.Helper()
	scn := compileExample(tb, "serverfleet")
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: 400, Reuse: reuse})
	ev.Reads("strained", "regional_demand")
	pts := make([]guide.Point, 53)
	for i := range pts {
		pt := scn.DefaultPoint()
		pt["current"] = value.Int(int64(i))
		pts[i] = pt
		if _, err := ev.evaluatePoint(context.Background(), pt); err != nil {
			tb.Fatal(err)
		}
	}
	return ev, pts
}

// TestWarmJoinPointAllocs pins what a warm render pays per point when its
// caller plots only moments (EXPECT). The first evaluation of a point whose
// sites are all cached runs the pipeline — no t-digest is built, so reduce
// adds nothing beyond the moment fold; the second runs it again and
// memoises the point; every later one is a point-memo hit.
func TestWarmJoinPointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ev, pts := warmJoinSweep(t)
	ctx := context.Background()
	eval := func(pt guide.Point, hit bool) {
		res, err := ev.evaluatePoint(ctx, pt)
		if err != nil {
			t.Fatal(err)
		}
		if memoised := res.Columns == nil; memoised != hit {
			t.Fatalf("point %v: memo hit = %v, want %v", pt, memoised, hit)
		}
		for _, cs := range res.Sketches {
			cs.Expect()
		}
	}
	// AllocsPerRun calls its function once more than it measures: 21 points,
	// each seen all-cached for the first time.
	next := 0
	miss := testing.AllocsPerRun(20, func() {
		eval(pts[next], false)
		next++
	})
	eval(pts[30], false)
	eval(pts[30], false)
	hit := testing.AllocsPerRun(20, func() { eval(pts[30], true) })
	// Building both columns' digests eagerly would cost 34 more per miss.
	const wantMiss, wantHit = 28, 17
	if miss > wantMiss {
		t.Errorf("first all-cached serverfleet point made %v allocations, want <= %d", miss, wantMiss)
	}
	if hit > wantHit {
		t.Errorf("memoised serverfleet point made %v allocations, want <= %d", hit, wantHit)
	}
}

// BenchmarkEvaluatePointJoinWarm is one warm 53-point serverfleet sweep,
// read as its GRAPH clause reads it.
func BenchmarkEvaluatePointJoinWarm(b *testing.B) {
	ev, pts := warmJoinSweep(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range pts {
			res, err := ev.evaluatePoint(ctx, pt)
			if err != nil {
				b.Fatal(err)
			}
			for _, cs := range res.Sketches {
				cs.Expect()
			}
		}
	}
}
