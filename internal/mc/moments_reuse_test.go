package mc

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
)

// checkFreshMoments fails t unless every result that carries its columns
// holds, in Sketches, the moments a fresh fold of each column gives, bit
// for bit.
func checkFreshMoments(t testing.TB, label string, results []*PointResult) {
	t.Helper()
	for _, res := range results {
		if res.Columns == nil {
			continue // a point-memo hit: its moments were checked when folded
		}
		for col, cs := range res.Sketches {
			fresh := aggregate.NewColumnStats()
			fresh.AddAll(res.Columns[col])
			if d := momentsDiff(cs, fresh); d != "" {
				t.Errorf("%s: point %v column %s: %s", label, res.Point, col, d)
			}
		}
	}
}

// momentsDiff describes the first bitwise difference between two
// aggregators' moments; "" when there is none.
func momentsDiff(got, want *aggregate.ColumnStats) string {
	gn, gmean, gm2, gmin, gmax := got.Moments.State()
	wn, wmean, wm2, wmin, wmax := want.Moments.State()
	if gn != wn {
		return fmt.Sprintf("count %d, want %d", gn, wn)
	}
	for _, f := range []struct {
		name string
		g, w float64
	}{{"mean", gmean, wmean}, {"m2", gm2, wm2}, {"min", gmin, wmin}, {"max", gmax, wmax}} {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.g, f.w)
		}
	}
	return ""
}

// visit evaluates pts as one traced batch, checks every result against a
// fresh fold and returns the results and the batch's moments_reused total.
func visit(t testing.TB, label string, ev *Evaluator, pts []guide.Point) ([]*PointResult, int64) {
	t.Helper()
	tr := obs.New("render", obs.NewID())
	results, err := ev.EvaluatePoints(obs.With(context.Background(), tr.Root()), pts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	tr.End()
	checkFreshMoments(t, label, results)
	var reused int64
	tr.Tree().Visit(func(_ int, n *obs.Node) {
		if n.Name == "sketch-merge" {
			v, _ := n.Attrs["moments_reused"].(int64)
			reused += v
		}
	})
	return results, reused
}

// reuseSweep returns capacityplanning's first n points along @current with
// @purchase1 at p1.
func reuseSweep(t testing.TB, scn *scenario.Scenario, p1 int64, n int) []guide.Point {
	t.Helper()
	pins := scn.DefaultPoint()
	pins["purchase1"] = value.Int(p1)
	pts, err := scn.Space.Sweep("current", pins)
	if err != nil {
		t.Fatal(err)
	}
	return pts[:n]
}

// TestMomentsReuseOracle: a point's aggregates are a fresh fold of its
// columns, bit for bit, whether a column's moments were folded on the spot
// or reused from the store entry of the payload it passes through. Over
// RAM only and a spill tier holding a seventh of the bases in RAM, with the
// point memo off and on, through first visits, exact revisits and slider
// moves that map the capacity site; on a 400-world basis read by 64-world
// points; and on two evaluators sharing one engine at once. A revisit
// reuses moments.
func TestMomentsReuseOracle(t *testing.T) {
	const worlds, points = 64, 16
	scn := compileExample(t, "capacityplanning")
	home, moved := reuseSweep(t, scn, 16, points), reuseSweep(t, scn, 24, points)
	// The bases of one visit to each position.
	probe, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pts := range [][]guide.Point{home, moved} {
		if _, err := NewEvaluator(scn, Options{Worlds: worlds, Reuse: probe}).EvaluatePoints(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
	}
	bases := probe.StoreStats().UsedBytes
	// Every point of a visit whose sites are all cached reads demand and
	// capacity from their payloads' moments.
	passThrough := int64(2 * points)

	for _, tc := range []struct {
		name  string
		spill bool
		memo  bool
	}{
		{"RAM only", false, false},
		{"spill tier", true, false},
		{"RAM only, memo on", false, true},
		{"spill tier, memo on", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := storage.Options{}
			if tc.spill {
				opts = storage.Options{BudgetBytes: bases / 7, SpillDir: t.TempDir()}
			}
			reuse, err := NewReuse(core.DefaultConfig(), opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { reuse.Close() })
			ev := NewEvaluator(scn, Options{Worlds: worlds, Reuse: reuse})
			if tc.memo {
				ev.Reads(scn.OutputCols...)
			}
			for i, step := range []struct {
				pts []guide.Point
				// revisit: every site is cached, and the point memo does
				// not answer yet.
				revisit bool
			}{
				{home, false}, {home, true}, {home, false}, {moved, false}, {moved, true}, {home, false}, {moved, false},
			} {
				// Over the spill tier every revisit promotes its bases, and a
				// promoted entry holds no moments.
				_, reused := visit(t, fmt.Sprintf("visit %d", i), ev, step.pts)
				if step.revisit && !tc.spill && reused != passThrough {
					t.Errorf("visit %d: %d columns reused their moments, want %d", i, reused, passThrough)
				}
			}
			if tc.spill {
				if st := reuse.StoreStats(); st.Promoted == 0 || st.Demoted == 0 {
					t.Fatalf("nothing cycled through the spill tier: %+v", st)
				}
			}
		})
	}

	t.Run("400-world basis read at 64 worlds", func(t *testing.T) {
		reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wide := NewEvaluator(scn, Options{Worlds: 400, Reuse: reuse})
		narrow := NewEvaluator(scn, Options{Worlds: worlds, Reuse: reuse})
		// An entry holds one slot: each change of world count refolds and
		// replaces it, and the next visit at the same count reuses it.
		for i, ev := range []*Evaluator{wide, wide, narrow, narrow, wide, narrow} {
			results, reused := visit(t, fmt.Sprintf("visit %d", i), ev, home)
			if n := results[0].Sketches["capacity"].Count(); n != int64(ev.opts.Worlds) {
				t.Fatalf("visit %d: capacity count %d, want %d", i, n, ev.opts.Worlds)
			}
			if want := map[int]int64{1: passThrough, 3: passThrough}[i]; reused != want {
				t.Errorf("visit %d: %d columns reused their moments, want %d", i, reused, want)
			}
		}
	})

	t.Run("two evaluators at once", func(t *testing.T) {
		reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g, pts := range [][]guide.Point{home, moved} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ev := NewEvaluator(scn, Options{Worlds: worlds, Reuse: reuse})
				if g == 1 {
					ev.Reads(scn.OutputCols...)
				}
				for i := 0; i < 4; i++ {
					results, err := ev.EvaluatePoints(context.Background(), pts)
					if err != nil {
						t.Error(err)
						return
					}
					checkFreshMoments(t, fmt.Sprintf("evaluator %d visit %d", g, i), results)
				}
			}()
		}
		wg.Wait()
	})
}
