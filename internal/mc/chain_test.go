package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// scalarFigure2 compiles figure2 against a registry whose CapacityModel is
// the plain scalar function — no series chain, one Generate per (site,
// world) — the oracle every chain-served sample must equal bit for bit.
func scalarFigure2(t *testing.T) *scenario.Scenario {
	t.Helper()
	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(models.NewDemandModel(models.DefaultDemandConfig())); err != nil {
		t.Fatal(err)
	}
	cm := models.NewCapacityModel(models.DefaultCapacityConfig())
	if err := reg.Register(vg.NewFunc(cm.Name(), cm.Arity(), cm.Generate)); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(figure2, reg)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// chainStep is one evaluation of a chain-invalidation case, optionally
// preceded by a Reconfigure to new worlds / seed base.
type chainStep struct {
	pt       guide.Point
	worlds   int
	seedBase uint64
}

func weekSweep(from, to int, p1, p2 int64) []chainStep {
	var steps []chainStep
	for w := from; w < to; w++ {
		steps = append(steps, chainStep{pt: point(int64(w), p1, p2, 36)})
	}
	return steps
}

// alternating interleaves two purchase cells week by week, so every point
// changes the capacity site's non-axis arguments.
func alternating(from, to int) []chainStep {
	var steps []chainStep
	for w := from; w < to; w++ {
		steps = append(steps, chainStep{pt: point(int64(w), 16, 32, 36)}, chainStep{pt: point(int64(w), 24, 32, 36)})
	}
	return steps
}

func reconfigured(steps []chainStep, worlds int, seedBase uint64) []chainStep {
	for i := range steps {
		steps[i].worlds, steps[i].seedBase = worlds, seedBase
	}
	return steps
}

// One evaluator keeps its chains across points; a fresh evaluator per point
// over the scalar registry never has one. Whatever invalidates a chain —
// new non-axis arguments, a Reconfigure to a new seed base, more worlds —
// and whatever splits the worlds — chunks, remote ranges over in-process
// workers, a failed remote range's local fallback, a worker's shard — every
// sample must be the same bits. A remote row's reference is the one-range
// local render without reuse, as remote ranges bypass it.
func TestChainInvalidation(t *testing.T) {
	ctx := context.Background()
	scn, oracle := compileFigure2(t), scalarFigure2(t)
	failing := func(context.Context, ShardTask) ([]*ShardOutput, error) {
		return nil, errors.New("worker down")
	}
	cases := []struct {
		name   string
		opts   Options
		reuse  bool
		remote bool         // fan out to workerRunner's in-process workers
		shards []WorldRange // evaluate only these shards in turn, as a worker
		steps  []chainStep
	}{
		{name: "alternating non-axis args", opts: Options{Worlds: 64}, steps: alternating(10, 20)},
		{name: "reconfigure to a new seed base", opts: Options{Worlds: 64},
			steps: append(weekSweep(0, 6, 16, 32), reconfigured(weekSweep(4, 10, 16, 32), 64, 7)...)},
		{name: "worlds grow 64 to 256", opts: Options{Worlds: 64},
			steps: append(weekSweep(20, 26, 8, 40), reconfigured(weekSweep(24, 30, 8, 40), 256, DefaultSeedBase)...)},
		{name: "shards 3 x workers 4", opts: Options{Worlds: 256, Shards: 3, Workers: 4}, remote: true, steps: alternating(30, 36)},
		{name: "reuse on", opts: Options{Worlds: 64}, reuse: true, steps: append(alternating(0, 8), weekSweep(40, 53, 44, 44)...)},
		{name: "reuse on, shards 3 x workers 4", opts: Options{Worlds: 256, Shards: 3, Workers: 4}, reuse: true, remote: true, steps: alternating(14, 22)},
		{name: "local fallback", opts: Options{Worlds: 64, Shards: 3, Runner: failing}, steps: alternating(8, 14)},
		{name: "worker shard", opts: Options{Worlds: 96}, shards: []WorldRange{{Lo: 32, Hi: 80}}, steps: alternating(45, 53)},
		{name: "worker shard moves", opts: Options{Worlds: 96}, shards: []WorldRange{{Lo: 32, Hi: 80}, {Lo: 0, Hi: 48}, {Lo: 40, Hi: 96}},
			steps: weekSweep(20, 29, 12, 12)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts, ref := c.opts, c.opts
			if c.reuse {
				var err error
				if opts.Reuse, err = NewReuse(core.DefaultConfig(), storage.Options{}); err != nil {
					t.Fatal(err)
				}
				// The oracle replays the same points through its own reuse
				// engine, so both see the same fingerprint decisions.
				if !c.remote {
					if ref.Reuse, err = NewReuse(core.DefaultConfig(), storage.Options{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if c.remote {
				opts.Runner = workerRunner(scn, Options{Workers: c.opts.Workers})
			}
			ev := NewEvaluator(scn, opts)
			for i, step := range c.steps {
				if step.worlds != 0 {
					ev.Reconfigure(step.worlds, step.seedBase, false)
					ref.Worlds, ref.SeedBase = step.worlds, step.seedBase
				}
				fresh := NewEvaluator(oracle, ref)
				var got, want map[string][]float64
				if len(c.shards) > 0 {
					shard := c.shards[i%len(c.shards)]
					g, err := ev.EvaluateShard(ctx, []guide.Point{step.pt}, shard)
					if err != nil {
						t.Fatal(err)
					}
					w, err := fresh.EvaluateShard(ctx, []guide.Point{step.pt}, shard)
					if err != nil {
						t.Fatal(err)
					}
					got, want = g[0].Columns, w[0].Columns
				} else {
					g, err := ev.evaluatePoint(ctx, step.pt)
					if err != nil {
						t.Fatal(err)
					}
					w, err := fresh.evaluatePoint(ctx, step.pt)
					if err != nil {
						t.Fatal(err)
					}
					got, want = g.Columns, w.Columns
				}
				assertSameBits(t, fmt.Sprintf("step %d %v", i, step.pt), want, got)
			}
		})
	}
}

func assertSameBits(t *testing.T, what string, want, got map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d columns, want %d", what, len(got), len(want))
	}
	for col, w := range want {
		g := got[col]
		if len(g) != len(w) {
			t.Fatalf("%s: column %q has %d rows, want %d", what, col, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: column %q world %d = %v, want %v", what, col, i, g[i], w[i])
			}
		}
	}
}

// countingSeries counts how a series model is evaluated: scalar calls,
// whole chains, bases drawn and overlays replayed over them.
type countingSeries struct {
	*models.CapacityModel
	generates, series, bases, overlays atomic.Int64
}

func (c *countingSeries) Generate(seed uint64, args []value.Value) (value.Value, error) {
	c.generates.Add(1)
	return c.CapacityModel.Generate(seed, args)
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

// reset zeroes c's counters.
func (c *countingSeries) reset() {
	for _, n := range []*atomic.Int64{&c.generates, &c.series, &c.bases, &c.overlays} {
		n.Store(0)
	}
}

// A render sweeps the week innermost, so it simulates each world's capacity
// chain once — yet the invocation counters still count every sample
// delivered: 53 points × 2 sites × worlds.
func TestChainOncePerWorldPerRender(t *testing.T) {
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
	const worlds = 32
	ev := NewEvaluator(scn, Options{Worlds: worlds, Workers: 3})
	for w := int64(0); w < models.Weeks; w++ {
		if _, err := ev.evaluatePoint(context.Background(), point(w, 16, 32, 36)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := capacity.counts(), [3]int64{worlds, worlds, 0}; got != want {
		t.Errorf("[bases overlays series] = %v, want one base and one overlay per world %v", got, want)
	}
	if got := capacity.generates.Load(); got != 0 {
		t.Errorf("%d scalar calls, want 0", got)
	}
	if got, want := reg.TotalInvocations(), int64(models.Weeks*2*worlds); got != want {
		t.Errorf("counted %d invocations, want %d (points × sites × worlds)", got, want)
	}

	// A worker whose range stays fixed across a fleet sweep — shard i of an
	// equal split — also simulates each of its worlds' chains once.
	capacity.reset()
	worker := NewEvaluator(scn, Options{Worlds: worlds, Workers: 3})
	for w := int64(0); w < models.Weeks; w++ {
		if _, err := worker.EvaluateShard(context.Background(), []guide.Point{point(w, 16, 32, 36)}, WorldRange{Lo: 16, Hi: 32}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := capacity.counts(), [3]int64{16, 16, 0}; got != want {
		t.Errorf("worker [bases overlays series] = %v, want one base and one overlay per world of its range %v", got, want)
	}
	if got := capacity.generates.Load(); got != 0 {
		t.Errorf("worker made %d scalar calls, want 0", got)
	}

	// An axis value the chain cannot index falls back to Generate, which
	// reports the error.
	only, err := scenario.Compile(`
DECLARE PARAMETER @current AS RANGE 0 TO 60 STEP BY 1;
SELECT CapacityModel(@current, 16, 32) AS capacity;`, reg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewEvaluator(only, Options{Worlds: worlds}).evaluatePoint(context.Background(), guide.Point{"current": value.Int(models.Weeks)})
	if err == nil || capacity.generates.Load() == 0 {
		t.Errorf("week %d: err %v after %d scalar calls; want Generate's range error", models.Weeks, err, capacity.generates.Load())
	}
}

func TestWarmChainRangeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	scn := compileFigure2(t)
	ev := NewEvaluator(scn, Options{Worlds: 256})
	si := 1 // CapacityModel#1
	if scn.Sites[si].Name != "CapacityModel" {
		t.Fatalf("site %d is %s", si, scn.Sites[si].Name)
	}
	call, err := ev.callAt(si, point(30, 16, 32, 36))
	if err != nil {
		t.Fatal(err)
	}
	ev.useChain(&call, 0, 256)
	if call.chain == nil {
		t.Fatal("CapacityModel site has no chain")
	}
	dst := make([]float64, 256)
	ctx := context.Background()
	if err := ev.simulateRange(ctx, call, 0, 256, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := ev.simulateRange(ctx, call, 0, 256, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm series-site range of 256 worlds made %v allocations, want 0", allocs)
	}
}

// A point with fewer than 2 worlds cannot be fingerprinted: with reuse it
// used to probe 2 worlds of 1 and panic. Renders at 1, 2 and 3 worlds with
// reuse must match renders without it — every world at 1 and 2, where all
// worlds are probes, and every world not affinely re-mapped at 3.
func TestReuseWithFewWorlds(t *testing.T) {
	ctx := context.Background()
	scn := compileFigure2(t)
	for _, worlds := range []int{1, 2, 3} {
		reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(scn, Options{Worlds: worlds, Reuse: reuse})
		direct := NewEvaluator(scn, Options{Worlds: worlds})
		for w := int64(0); w < models.Weeks; w++ {
			pt := point(w, 16, 32, 36)
			got, err := ev.evaluatePoint(ctx, pt)
			if err != nil {
				t.Fatalf("worlds=%d week %d: %v", worlds, w, err)
			}
			want, err := direct.evaluatePoint(ctx, pt)
			if err != nil {
				t.Fatal(err)
			}
			exact := len(want.Columns["capacity"])
			for _, kind := range got.SiteOutcome {
				if kind == Affine && exact > 2 {
					exact = 2 // the probed worlds stay exact
				}
			}
			for col, w := range want.Columns {
				for i := 0; i < exact; i++ {
					if math.Float64bits(got.Columns[col][i]) != math.Float64bits(w[i]) {
						t.Fatalf("worlds=%d week %s: %s world %d = %v with reuse, %v without",
							worlds, pt["current"].String(), col, i, got.Columns[col][i], w[i])
					}
				}
			}
		}
	}
}
