package online

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// checkFrameOracle fails t unless frame g, rendered by s at worlds worlds,
// plots what a fresh fold of its points' columns gives, bit for bit. The
// columns come from an evaluator over the session's reuse engine, on which
// every site of the frame is now an exact hit, so its own aggregates read
// the moments the render stored with the payloads: they must be a fresh
// fold of its columns too.
func checkFrameOracle(t *testing.T, label string, s *Session, g *Graph, worlds int) {
	t.Helper()
	pts, err := s.scn.Space.Sweep(s.axis, s.Pins())
	if err != nil {
		t.Fatal(err)
	}
	ev := mc.NewEvaluator(s.scn, mc.Options{Worlds: worlds, SeedBase: s.opts.SeedBase, Reuse: s.opts.Reuse})
	results, err := ev.EvaluatePoints(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for p, res := range results {
		for col, cs := range res.Sketches {
			fresh := aggregate.NewColumnStats()
			fresh.AddAll(res.Columns[col])
			gn, gmean, gm2, gmin, gmax := cs.Moments.State()
			wn, wmean, wm2, wmin, wmax := fresh.Moments.State()
			if gn != wn || !same(gmean, wmean) || !same(gm2, wm2) || !same(gmin, wmin) || !same(gmax, wmax) {
				t.Fatalf("%s: point %d column %s: stored moments %v, fresh fold %v", label, p, col,
					[]any{gn, gmean, gm2, gmin, gmax}, []any{wn, wmean, wm2, wmin, wmax})
			}
		}
		for _, srs := range g.Series {
			fresh := aggregate.NewColumnStats()
			fresh.AddAll(res.Columns[srs.Column])
			want, err := fresh.Metric(srs.Agg)
			if err != nil {
				t.Fatal(err)
			}
			if !same(srs.Y[p], want) || !same(srs.CI95[p], fresh.CI95()) {
				t.Fatalf("%s: point %d %s = %v ± %v, fresh fold %v ± %v", label, p, srs.Name, srs.Y[p], srs.CI95[p], want, fresh.CI95())
			}
		}
	}
}

// TestMomentsReuseOracleOnline: a frame plots a fresh fold of its columns,
// bit for bit, when its sessions share one reuse engine whose payloads keep
// their moments: along 50 → 400-world progressive renders, every pass at a
// new world count, repeated and after a slider move, and after two
// sessions rendered at once.
func TestMomentsReuseOracleOnline(t *testing.T) {
	reg := vg.NewRegistry()
	if err := models.RegisterDefaults(reg); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(figure2, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	newReuse := func(t *testing.T) *mc.Reuse {
		reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return reuse
	}
	session := func(t *testing.T, worlds int, reuse *mc.Reuse, purchase1 int64) *Session {
		s, err := NewSession(scn, mc.Options{Worlds: worlds, Workers: 2, Reuse: reuse})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetParam("purchase1", value.Int(purchase1)); err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("progressive 50 to 400", func(t *testing.T) {
		reuse := newReuse(t)
		first, second := session(t, 400, reuse, 16), session(t, 400, reuse, 16)
		for i, step := range []struct {
			s         *Session
			purchase1 int64
		}{{first, 16}, {first, 16}, {second, 16}, {second, 24}, {first, 24}} {
			if err := step.s.SetParam("purchase1", value.Int(step.purchase1)); err != nil {
				t.Fatal(err)
			}
			passes := 0
			if _, err := step.s.RenderProgressive(ctx, 50, func(g *Graph, worlds int) bool {
				checkFrameOracle(t, fmt.Sprintf("render %d, %d worlds", i, worlds), step.s, g, worlds)
				passes++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if passes != 4 {
				t.Fatalf("render %d: %d passes, want 4 (50, 100, 200, 400 worlds)", i, passes)
			}
		}
	})

	t.Run("two sessions at once", func(t *testing.T) {
		const worlds = 128
		reuse := newReuse(t)
		sessions := []*Session{session(t, worlds, reuse, 16), session(t, worlds, reuse, 24)}
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					if _, err := s.Render(ctx); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		for i, s := range sessions {
			checkFrameOracle(t, fmt.Sprintf("session %d", i), s, mustRender(t, s), worlds)
		}
	})
}
