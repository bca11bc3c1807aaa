package mc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
)

// memoEvaluator returns an evaluator over reuse that reads every output
// column, as a caller declaring Reads does; a nil reuse gets a fresh one.
func memoEvaluator(t *testing.T, scn *scenario.Scenario, worlds int, reuse *Reuse) *Evaluator {
	t.Helper()
	if reuse == nil {
		var err error
		if reuse, err = NewReuse(core.DefaultConfig(), storage.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	ev := NewEvaluator(scn, Options{Worlds: worlds, Reuse: reuse})
	ev.Reads(scn.OutputCols...)
	return ev
}

// evalTraced evaluates pt under a trace and reports whether the point span
// says the point memo answered it.
func evalTraced(t *testing.T, ev *Evaluator, pt guide.Point) (*PointResult, bool) {
	t.Helper()
	tr := obs.New("render", obs.NewID())
	res, err := ev.evaluatePoint(obs.With(context.Background(), tr.Root()), pt)
	if err != nil {
		t.Fatalf("point %v: %v", pt, err)
	}
	tr.End()
	hit := false
	tr.Tree().Visit(func(_ int, n *obs.Node) {
		if n.Name == "point" && n.Attrs["memo_hit"] == int64(1) {
			hit = true
		}
	})
	return res, hit
}

// sameAggregates asserts got holds want's aggregates bit for bit: count,
// mean, M2, min and max, and the EXPECT, EXPECT_STDDEV, PROB and CI95 a
// graph would serve from them.
func sameAggregates(t *testing.T, label string, want, got *PointResult) {
	t.Helper()
	if len(got.Sketches) != len(want.Sketches) {
		t.Fatalf("%s: %d aggregates, want %d", label, len(got.Sketches), len(want.Sketches))
	}
	for col, w := range want.Sketches {
		g, ok := got.Sketches[col]
		if !ok {
			t.Fatalf("%s: no aggregate for column %q", label, col)
		}
		wn, wmean, wm2, wmin, wmax := w.Moments.State()
		gn, gmean, gm2, gmin, gmax := g.Moments.State()
		if wn != gn {
			t.Fatalf("%s: column %q count %d, want %d", label, col, gn, wn)
		}
		served := func(cs *aggregate.ColumnStats) []float64 {
			out := []float64{cs.CI95()}
			for _, agg := range []string{"EXPECT", "EXPECT_STDDEV", "PROB"} {
				v, err := cs.Metric(agg)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
			return out
		}
		wv := append([]float64{wmean, wm2, wmin, wmax}, served(w)...)
		gv := append([]float64{gmean, gm2, gmin, gmax}, served(g)...)
		for i := range wv {
			if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
				t.Fatalf("%s: column %q value %d = %v, want %v (not bit-identical)", label, col, i, gv[i], wv[i])
			}
		}
	}
}

// assertRecomputed evaluates pt through ev, requires the point memo not to
// answer it, and requires the result to equal a fresh evaluator's.
func assertRecomputed(t *testing.T, label string, scn *scenario.Scenario, ev *Evaluator, pt guide.Point) *PointResult {
	t.Helper()
	return assertMemo(t, label, scn, ev, pt, false)
}

// assertMemo evaluates pt through ev, requires the point memo to answer it
// exactly when wantHit is set, and requires the result to equal a fresh
// evaluator's.
func assertMemo(t *testing.T, label string, scn *scenario.Scenario, ev *Evaluator, pt guide.Point, wantHit bool) *PointResult {
	t.Helper()
	got, hit := evalTraced(t, ev, pt)
	if hit != wantHit {
		t.Fatalf("%s: point memo hit = %v, want %v", label, hit, wantHit)
	}
	want, err := memoEvaluator(t, scn, ev.opts.Worlds, nil).evaluatePoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	sameAggregates(t, label, want, got)
	return got
}

// compileShipped compiles one of shippedSources' scripts, attaching the
// regions table the serverfleet scripts join.
func compileShipped(t *testing.T, name, src string) *scenario.Scenario {
	t.Helper()
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(src, reg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(name, "serverfleet") {
		regions, err := benchfix.RegionsTable()
		if err != nil {
			t.Fatal(err)
		}
		if err := scn.AddTable(regions); err != nil {
			t.Fatal(err)
		}
	}
	return scn
}

// TestPointMemoBitIdentical: on every scenario the repo ships, a sweep's
// fourth visit is answered by the point memo, and the answer equals, bit for
// bit, a render through a fresh reuse engine loaded with the same bases.
func TestPointMemoBitIdentical(t *testing.T) {
	const worlds = 64
	for name, src := range shippedSources(t) {
		t.Run(name, func(t *testing.T) {
			scn := compileShipped(t, name, src)
			points, err := scn.Space.Sweep(scn.Space.Params[0].Name, scn.DefaultPoint())
			if err != nil {
				t.Fatal(err)
			}
			warm := memoEvaluator(t, scn, worlds, nil)
			// Pass 0 fills the basis store; pass 1 finds every site cached
			// for the first time, pass 2 again and memoises the point; pass
			// 3 is served by the memo.
			var fresh *Evaluator
			for pass := 0; pass < 4; pass++ {
				if pass == 3 {
					// A fresh engine over the same bases (a snapshot holds
					// no memo) runs the pipeline on the same site vectors.
					var snap bytes.Buffer
					if err := warm.opts.Reuse.Save(&snap); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadReuse(&snap, storage.Options{})
					if err != nil {
						t.Fatal(err)
					}
					fresh = memoEvaluator(t, scn, worlds, loaded)
				}
				for _, pt := range points {
					got, hit := evalTraced(t, warm, pt)
					if hit != (pass == 3) {
						t.Fatalf("pass %d point %v: memo hit = %v", pass, pt, hit)
					}
					if pass < 3 {
						continue
					}
					if got.Columns != nil {
						t.Fatalf("point %v: a memo hit carries sample vectors", pt)
					}
					want, hit := evalTraced(t, fresh, pt)
					if hit {
						t.Fatalf("point %v: the fresh engine answered from a memo", pt)
					}
					sameAggregates(t, name, want, got)
				}
			}
		})
	}
}

// TestPointMemoConsultedOnlyWhenAllowed: the memo serves and records only
// a local evaluation with a reuse engine, whose caller declared Reads,
// that is not sketch-only and whose sites are all exact store hits.
func TestPointMemoConsultedOnlyWhenAllowed(t *testing.T) {
	scn := compileExample(t, "capacityplanning")
	pt := scn.DefaultPoint()
	runner := func(ctx context.Context, task ShardTask) ([]*ShardOutput, error) {
		worker := NewEvaluator(scn, Options{Worlds: task.Worlds, SeedBase: task.SeedBase, SketchOnly: task.SketchOnly})
		return worker.EvaluateShard(ctx, task.Points, task.Range)
	}
	for _, tc := range []struct {
		name  string
		reads bool
		opts  Options
		want  bool
	}{
		{"local with Reads", true, Options{}, true},
		{"local with Reads, sharded", true, Options{Shards: 3}, true},
		{"no Reads", false, Options{}, false},
		{"Runner", true, Options{Runner: runner}, false},
		{"SketchOnly", true, Options{SketchOnly: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.opts
			opts.Worlds, opts.Reuse = 64, reuse
			ev := NewEvaluator(scn, opts)
			if tc.reads {
				ev.Reads(scn.OutputCols...)
			}
			for visit := 0; visit < 4; visit++ {
				_, hit := evalTraced(t, ev, pt)
				if want := tc.want && visit == 3; hit != want {
					t.Fatalf("visit %d: memo hit = %v, want %v", visit, hit, want)
				}
				// The first visit computes its sites: nothing to memoise yet.
				if visit == 0 && reuse.memo.size() != 0 {
					t.Fatal("a point with computed sites was memoised")
				}
			}
			if !tc.want && reuse.memo.size() != 0 {
				t.Errorf("memo holds %d bytes, want none", reuse.memo.size())
			}
		})
	}
}

// TestPointMemoInvalidation: every way a site's store entry can change
// under a memoised point forces a recompute equal to a fresh evaluator; a
// trip through the spill tier, which brings back the very same entry, does
// not.
func TestPointMemoInvalidation(t *testing.T) {
	const worlds = 64
	memoised := func(t *testing.T, ev *Evaluator, pt guide.Point) {
		t.Helper()
		for visit := 0; visit < 4; visit++ {
			if _, hit := evalTraced(t, ev, pt); hit != (visit == 3) {
				t.Fatalf("visit %d: memo hit = %v", visit, hit)
			}
		}
	}
	newReuse := func(t *testing.T, opts storage.Options) *Reuse {
		t.Helper()
		reuse, err := NewReuse(core.DefaultConfig(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reuse.Close() })
		return reuse
	}
	// Two capacityplanning points' bases fit in this budget, three do not.
	const budget = 3000

	t.Run("replaced by a longer world count", func(t *testing.T) {
		scn := compileExample(t, "capacityplanning")
		pt := scn.DefaultPoint()
		reuse := newReuse(t, storage.Options{})
		short := memoEvaluator(t, scn, worlds, reuse)
		memoised(t, short, pt)
		if _, err := memoEvaluator(t, scn, 2*worlds, reuse).evaluatePoint(context.Background(), pt); err != nil {
			t.Fatal(err)
		}
		assertRecomputed(t, "after a longer basis", scn, short, pt)
	})

	t.Run("evicted", func(t *testing.T) {
		scn := compileExample(t, "capacityplanning")
		pt := scn.DefaultPoint()
		reuse := newReuse(t, storage.Options{BudgetBytes: budget})
		ev := memoEvaluator(t, scn, worlds, reuse)
		memoised(t, ev, pt)
		for week := 10; week < 13; week++ {
			other := scn.DefaultPoint()
			other["current"] = value.Int(int64(week))
			if _, err := ev.evaluatePoint(context.Background(), other); err != nil {
				t.Fatal(err)
			}
		}
		if reuse.StoreStats().Evicted == 0 {
			t.Fatal("nothing was evicted")
		}
		assertRecomputed(t, "after eviction", scn, ev, pt)
	})

	t.Run("spilled and promoted", func(t *testing.T) {
		scn := compileExample(t, "capacityplanning")
		pt := scn.DefaultPoint()
		reuse := newReuse(t, storage.Options{BudgetBytes: budget, SpillDir: t.TempDir()})
		ev := memoEvaluator(t, scn, worlds, reuse)
		memoised(t, ev, pt)
		for week := 10; week < 13; week++ {
			other := scn.DefaultPoint()
			other["current"] = value.Int(int64(week))
			if _, err := ev.evaluatePoint(context.Background(), other); err != nil {
				t.Fatal(err)
			}
		}
		before := reuse.StoreStats().Promoted
		got := assertMemo(t, "after promotion", scn, ev, pt, true)
		for site, kind := range got.SiteOutcome {
			if kind != CachedExact {
				t.Fatalf("site %s = %v, want cached (served from the spill tier)", site, kind)
			}
		}
		if d := reuse.StoreStats().Promoted - before; d != 0 {
			t.Fatalf("the memo hit promoted %d bases from the spill tier, want 0", d)
		}
		if promotions(t, reuse, pointKeys(t, ev, pt)) == 0 {
			t.Fatal("none of the point's bases was in the spill tier alone")
		}
	})

	t.Run("side tables changed", func(t *testing.T) {
		old := compileExample(t, "serverfleet")
		bigger := compileExample(t, "serverfleet")
		regions := bigger.StaticTables[0]
		rows := make([][]value.Value, len(regions.Rows))
		for i, row := range regions.Rows {
			capacity, _ := row[2].AsFloat()
			rows[i] = []value.Value{row[0], row[1], value.Float(2 * capacity)}
		}
		doubled, err := sqlengine.NewTable(regions.Name, regions.Cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		bigger.StaticTables[0] = doubled
		pt := old.DefaultPoint()
		pt["current"] = value.Int(40)
		reuse := newReuse(t, storage.Options{})
		memoised(t, memoEvaluator(t, old, worlds, reuse), pt)
		was, _ := evalTraced(t, memoEvaluator(t, old, worlds, reuse), pt)
		got := assertRecomputed(t, "with new side tables", bigger, memoEvaluator(t, bigger, worlds, reuse), pt)
		for site, kind := range got.SiteOutcome {
			if kind != CachedExact {
				t.Fatalf("site %s = %v, want cached (the site vectors do not depend on the tables)", site, kind)
			}
		}
		if was.Sketches["strained"].Expect() == got.Sketches["strained"].Expect() {
			t.Fatal("doubling every region's capacity left EXPECT strained unchanged; the test proves nothing")
		}
	})
}

// TestPointMemoQuantileReadsFail: a memo-served aggregate carries moments
// only, so every quantile read fails instead of returning a number.
func TestPointMemoQuantileReadsFail(t *testing.T) {
	scn := compileExample(t, "capacityplanning")
	pt := scn.DefaultPoint()
	ev := memoEvaluator(t, scn, 64, nil)
	var res *PointResult
	for visit := 0; visit < 4; visit++ {
		var hit bool
		if res, hit = evalTraced(t, ev, pt); hit != (visit == 3) {
			t.Fatalf("visit %d: memo hit = %v", visit, hit)
		}
	}
	for col, cs := range res.Sketches {
		if _, err := cs.Quantile(0.5); !errors.Is(err, aggregate.ErrMomentsOnly) {
			t.Errorf("%s: Quantile error = %v, want ErrMomentsOnly", col, err)
		}
		for _, agg := range []string{"MEDIAN", "P95"} {
			if v, err := cs.Metric(agg); !errors.Is(err, aggregate.ErrMomentsOnly) {
				t.Errorf("%s: Metric(%s) = %v, %v, want ErrMomentsOnly", col, agg, v, err)
			}
		}
		if m, p := cs.Median(), cs.P95(); !math.IsNaN(m) || !math.IsNaN(p) {
			t.Errorf("%s: Median, P95 = %v, %v, want NaN", col, m, p)
		}
	}
}

// TestPointMemoBounded: the memo never holds more bytes than the basis
// store keeps resident, evicting its least recently used points beyond
// that, and a snapshot carries none of it. With a spill tier, the bound
// counts the spilled bases too, so a working set far beyond the RAM budget
// is memoised in full.
func TestPointMemoBounded(t *testing.T) {
	ctx := context.Background()
	scn := compileExample(t, "capacityplanning")
	points, err := scn.Space.Sweep("current", scn.DefaultPoint())
	if err != nil {
		t.Fatal(err)
	}
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{BudgetBytes: 3000})
	if err != nil {
		t.Fatal(err)
	}
	ev := memoEvaluator(t, scn, 64, reuse)
	for _, pt := range points {
		// Three times: the third visit is the second to find every site
		// cached, and memoises the point.
		for visit := 0; visit < 3; visit++ {
			if _, err := ev.evaluatePoint(ctx, pt); err != nil {
				t.Fatal(err)
			}
			if memo, store := reuse.memo.size(), reuse.StoreStats().UsedBytes; memo > store {
				t.Fatalf("point %v: memo holds %d bytes, the store %d", pt, memo, store)
			}
		}
	}
	if n := reuse.memo.order.Len(); n == 0 || n >= len(points) {
		t.Fatalf("memo holds %d of %d points; want some, evicted down to the bound", n, len(points))
	}
	if _, hit := evalTraced(t, ev, points[len(points)-1]); !hit {
		t.Fatal("the most recently memoised point was evicted")
	}

	var snap bytes.Buffer
	if err := reuse.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReuse(&snap, storage.Options{BudgetBytes: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.memo.size() != 0 {
		t.Fatalf("a loaded snapshot carries %d memo bytes", loaded.memo.size())
	}
	res, hit := evalTraced(t, memoEvaluator(t, scn, 64, loaded), points[len(points)-1])
	if hit {
		t.Fatal("a point was served from a memo the snapshot should not carry")
	}
	for site, kind := range res.SiteOutcome {
		if kind != CachedExact {
			t.Fatalf("site %s = %v after loading, want cached", site, kind)
		}
	}

	t.Run("spill tier", func(t *testing.T) {
		// The RAM budget is a seventh of the sweep's bases.
		full := memoEvaluator(t, scn, 64, nil)
		for _, pt := range points {
			if _, err := full.evaluatePoint(ctx, pt); err != nil {
				t.Fatal(err)
			}
		}
		budget := full.opts.Reuse.StoreStats().UsedBytes / 7
		reuse, err := NewReuse(core.DefaultConfig(), storage.Options{BudgetBytes: budget, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer reuse.Close()
		ev := memoEvaluator(t, scn, 64, reuse)
		for _, pt := range points {
			for visit := 0; visit < 3; visit++ {
				if _, err := ev.evaluatePoint(ctx, pt); err != nil {
					t.Fatal(err)
				}
				st := reuse.StoreStats()
				if memo := reuse.memo.size(); memo > st.UsedBytes+st.SpillBytes {
					t.Fatalf("point %v: memo holds %d bytes, the store %d in RAM and %d spilled", pt, memo, st.UsedBytes, st.SpillBytes)
				}
			}
		}
		if n := reuse.memo.order.Len(); n != len(points) {
			t.Fatalf("memo holds %d of %d points, want all", n, len(points))
		}
		if memo, ram := reuse.memo.size(), reuse.StoreStats().UsedBytes; memo <= ram {
			t.Fatalf("memo holds %d bytes, the RAM tier %d: too small a working set to test the bound", memo, ram)
		}
		before := reuse.StoreStats()
		for _, pt := range points {
			if _, hit := evalTraced(t, ev, pt); !hit {
				t.Fatalf("point %v: recomputed, want a memo hit through the spill tier", pt)
			}
		}
		if st := reuse.StoreStats(); st.Promoted != before.Promoted {
			t.Fatalf("the memo hits promoted %d bases from the spill tier, want 0: %+v", st.Promoted-before.Promoted, st)
		}
	})
}
