package online

import (
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

func TestRenderProgressiveRefines(t *testing.T) {
	s := newSession(t, 256)
	var worldsSeen []int
	g, err := s.RenderProgressive(context.Background(), 32, func(g *Graph, worlds int) bool {
		worldsSeen = append(worldsSeen, worlds)
		if len(g.X) != 53 {
			t.Errorf("frame at %d worlds has %d points", worlds, len(g.X))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{32, 64, 128, 256}
	if len(worldsSeen) != len(want) {
		t.Fatalf("frames = %v, want %v", worldsSeen, want)
	}
	for i := range want {
		if worldsSeen[i] != want[i] {
			t.Fatalf("frames = %v, want %v", worldsSeen, want)
		}
	}
	if g == nil || len(g.Series) != 3 {
		t.Fatal("final frame missing")
	}
}

func TestRenderProgressiveEarlyStop(t *testing.T) {
	s := newSession(t, 256)
	frames := 0
	_, err := s.RenderProgressive(context.Background(), 32, func(g *Graph, worlds int) bool {
		frames++
		return frames < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames != 2 {
		t.Errorf("frames = %d, want 2", frames)
	}
}

func TestRenderProgressiveValidation(t *testing.T) {
	s := newSession(t, 64)
	if _, err := s.RenderProgressive(context.Background(), 32, nil); err == nil {
		t.Error("nil callback should error")
	}
	// startWorlds above the cap clamps to a single frame.
	frames := 0
	if _, err := s.RenderProgressive(context.Background(), 9999, func(*Graph, int) bool {
		frames++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if frames != 1 {
		t.Errorf("frames = %d, want 1", frames)
	}
}

func TestExplorationMap(t *testing.T) {
	s := newSession(t, 30)
	// Nothing explored yet.
	grid, err := s.ExplorationMap("purchase1", "purchase2")
	if err != nil {
		t.Fatal(err)
	}
	counts := grid.Counts()
	if counts['.'] != 14*14 {
		t.Fatalf("fresh map counts = %v", counts)
	}

	// A render marks the current pins.
	if _, err := s.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
	grid, err = s.ExplorationMap("purchase1", "purchase2")
	if err != nil {
		t.Fatal(err)
	}
	counts = grid.Counts()
	if counts['#'] != 1 { // rendered cell
		t.Errorf("rendered cells = %d, want 1 (%v)", counts['#'], counts)
	}
	out := grid.Render()
	if !strings.Contains(out, "@purchase1") || !strings.Contains(out, "@purchase2") {
		t.Errorf("map labels missing:\n%s", out)
	}
}

func TestExplorationMapValidation(t *testing.T) {
	s := newSession(t, 10)
	if _, err := s.ExplorationMap("current", "purchase1"); err == nil {
		t.Error("axis as dimension should error")
	}
	if _, err := s.ExplorationMap("purchase1", "purchase1"); err == nil {
		t.Error("duplicate dimension should error")
	}
	if _, err := s.ExplorationMap("purchase1", "nope"); err == nil {
		t.Error("unknown dimension should error")
	}
}

func TestExplorationMapTracksMoves(t *testing.T) {
	s := newSession(t, 20)
	if _, err := s.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.SetParam("purchase1", value.Int(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
	grid, err := s.ExplorationMap("purchase1", "purchase2")
	if err != nil {
		t.Fatal(err)
	}
	if got := grid.Counts()['#']; got != 2 {
		t.Errorf("rendered cells = %d, want 2", got)
	}
}

// countingSeries counts the chains a series model simulates: whole chains,
// bases drawn and overlays replayed over them.
type countingSeries struct {
	*models.CapacityModel
	series, bases, overlays atomic.Int64
}

func (c *countingSeries) Series(seed uint64, args []value.Value, out []float64) error {
	c.series.Add(1)
	return c.CapacityModel.Series(seed, args, out)
}

func (c *countingSeries) Base(seed uint64, out []byte) {
	c.bases.Add(1)
	c.CapacityModel.Base(seed, out)
}

func (c *countingSeries) Overlay(seed uint64, args []value.Value, base []byte, out []float64) error {
	c.overlays.Add(1)
	return c.CapacityModel.Overlay(seed, args, base, out)
}

// counts returns how many bases, overlays and whole chains c has run.
func (c *countingSeries) counts() [3]int64 {
	return [3]int64{c.bases.Load(), c.overlays.Load(), c.series.Load()}
}

// countingScenario compiles figure2 over a registry whose CapacityModel
// counts its Series, Base and Overlay calls.
func countingScenario(t *testing.T) (*scenario.Scenario, *countingSeries) {
	t.Helper()
	reg := vg.NewRegistry()
	if err := reg.Register(models.NewDemandModel(models.DefaultDemandConfig())); err != nil {
		t.Fatal(err)
	}
	capacity := &countingSeries{CapacityModel: models.NewCapacityModel(models.DefaultCapacityConfig())}
	if err := reg.Register(capacity); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(figure2, reg)
	if err != nil {
		t.Fatal(err)
	}
	return scn, capacity
}

// TestRenderProgressiveOneEvaluator: the passes of a progressive render
// share one evaluator, so with reuse off a 50 → 400 render simulates each
// of the 400 worlds' capacity chains once, not once per pass (750).
func TestRenderProgressiveOneEvaluator(t *testing.T) {
	scn, capacity := countingScenario(t)
	s, err := NewSession(scn, mc.Options{Worlds: 400})
	if err != nil {
		t.Fatal(err)
	}
	var passes []int
	if _, err := s.RenderProgressive(context.Background(), 50, func(_ *Graph, worlds int) bool {
		passes = append(passes, worlds)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(passes, []int{50, 100, 200, 400}) {
		t.Fatalf("passes = %v, want [50 100 200 400]", passes)
	}
	if got, want := capacity.counts(), [3]int64{400, 400, 0}; got != want {
		t.Errorf("a 50 → 400 progressive render ran [bases overlays series] = %v, want %v (one base and overlay per world)", got, want)
	}
}

// TestTimeToFirstAccurateGuessOneEvaluator: the same for the convergence
// probe. An unreachable eps runs every pass, 50 → 400, each stopping at its
// first point; the chains of that point's 400 worlds are simulated once.
func TestTimeToFirstAccurateGuessOneEvaluator(t *testing.T) {
	scn, capacity := countingScenario(t)
	s, err := NewSession(scn, mc.Options{Worlds: 400})
	if err != nil {
		t.Fatal(err)
	}
	_, worlds, err := s.TimeToFirstAccurateGuess(context.Background(), 1e-12, 50)
	if err != nil {
		t.Fatal(err)
	}
	if worlds != 400 {
		t.Fatalf("stopped at %d worlds, want 400", worlds)
	}
	if got, want := capacity.counts(), [3]int64{400, 400, 0}; got != want {
		t.Errorf("a 50 → 400 convergence probe ran [bases overlays series] = %v, want %v (one base and overlay per world)", got, want)
	}
}

// TestRenderProgressivePassesMatchFreshRenders: every pass of a progressive
// render, with reuse on and off, is bit for bit the frame a fresh session
// renders at that pass's world count.
func TestRenderProgressivePassesMatchFreshRenders(t *testing.T) {
	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		t.Fatal(err)
	}
	if err := models.RegisterDefaults(reg); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(figure2, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		reuse bool
	}{{"reuse off", false}, {"reuse on", true}} {
		t.Run(tc.name, func(t *testing.T) {
			open := func(worlds int) *Session {
				opts := mc.Options{Worlds: worlds}
				if tc.reuse {
					reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
					if err != nil {
						t.Fatal(err)
					}
					opts.Reuse = reuse
				}
				s, err := NewSession(scn, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.SetParam("purchase1", value.Int(16)); err != nil {
					t.Fatal(err)
				}
				return s
			}
			frames := map[int]*Graph{}
			if _, err := open(400).RenderProgressive(ctx, 50, func(g *Graph, worlds int) bool {
				frames[worlds] = g
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(frames) != 4 {
				t.Fatalf("%d passes, want 4", len(frames))
			}
			for worlds, got := range frames {
				want, err := open(worlds).Render(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFrame(want, got) {
					t.Errorf("the %d-world pass differs from a fresh %d-world render", worlds, worlds)
				}
			}
		})
	}
}
