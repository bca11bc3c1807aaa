package fuzzyprophet

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOptimizeCancellation: a cancelled context aborts an offline sweep that
// would otherwise run for a long time, returning context's error within a
// small multiple of one world-batch.
func TestOptimizeCancellation(t *testing.T) {
	sys := demoSystem(t)
	// The full figure2 grid at 400 worlds is far beyond interactive time
	// uncancelled (14×14×3 groups × 53 free points); the deadline is 50ms.
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = scn.Optimize(ctx, nil, WithWorlds(400))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled sweep took %v; cancellation is not prompt", elapsed)
	}
}

// TestRenderCancellationLeavesReuseConsistent: cancelling a render mid-sweep
// returns the context error; the same session then renders to completion and
// its graph matches a never-cancelled session's exactly (partial reuse state
// must not change results).
func TestRenderCancellationLeavesReuseConsistent(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(80))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the render must abort immediately
	if _, err := session.Render(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	g, err := session.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	clean, err := scn.OpenSession(WithWorlds(80))
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for si := range g.Series {
		for pi := range g.Series[si].Y {
			if math.Abs(g.Series[si].Y[pi]-want.Series[si].Y[pi]) > 1e-9 {
				t.Fatalf("series %d point %d: %g != %g after cancelled render",
					si, pi, g.Series[si].Y[pi], want.Series[si].Y[pi])
			}
		}
	}
}

// TestSessionConcurrentSetParamRender hammers SetParam and Render from
// concurrent goroutines; run under -race this verifies the mutex-guarded
// slider state and snapshot-based rendering.
func TestSessionConcurrentSetParamRender(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(20))
	if err != nil {
		t.Fatal(err)
	}
	positions := []int{0, 4, 8, 12, 16}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				param := "purchase1"
				if w == 1 {
					param = "purchase2"
				}
				if err := session.SetParam(param, positions[i%len(positions)]); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := session.Render(context.Background()); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// The session is still coherent afterwards.
	if _, err := session.Render(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateBatchAmortizesReuse: a 20-point correlated grid (fixed week,
// varying purchase dates) evaluated through one shared reuse engine serves
// more than half the points by reuse, and spends far fewer VG invocations
// than the same points through independent single Evaluate calls.
func TestEvaluateBatchAmortizesReuse(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	var points []map[string]any
	for p1 := 0; p1 <= 48 && len(points) < 20; p1 += 8 {
		for _, p2 := range []int{32, 40, 48} {
			if len(points) == 20 {
				break
			}
			points = append(points, map[string]any{
				"current": 26, "purchase1": p1, "purchase2": p2, "feature": 36,
			})
		}
	}
	if len(points) != 20 {
		t.Fatalf("grid has %d points, want 20", len(points))
	}

	sys.ResetVGInvocations()
	res, err := scn.EvaluateBatch(context.Background(), points, WithWorlds(100))
	if err != nil {
		t.Fatal(err)
	}
	batchInv := sys.VGInvocations()

	if len(res.Points) != len(points) {
		t.Fatalf("batch returned %d points, want %d", len(res.Points), len(points))
	}
	reusedPoints := 0
	for _, bp := range res.Points {
		fresh := false
		for _, outcome := range bp.SiteOutcome {
			if outcome == "computed" {
				fresh = true
			}
		}
		if !fresh {
			reusedPoints++
		}
		if bp.Summaries["capacity"].N != 100 {
			t.Fatalf("point %v: capacity N = %d", bp.Point, bp.Summaries["capacity"].N)
		}
	}
	if reusedPoints*2 <= len(points) {
		t.Errorf("only %d/%d points served by reuse; want more than half (counts %v)",
			reusedPoints, len(points), res.ReuseCounts)
	}
	reusedSites := res.ReuseCounts["cached"] + res.ReuseCounts["identity"] + res.ReuseCounts["affine"]
	if reusedSites <= res.ReuseCounts["computed"] {
		t.Errorf("reuse counts %v: reused sites should dominate computed", res.ReuseCounts)
	}

	// The naive loop: each Evaluate gets a fresh reuse engine, so nothing
	// amortizes.
	sys.ResetVGInvocations()
	for _, p := range points {
		if _, err := scn.Evaluate(context.Background(), p, WithWorlds(100)); err != nil {
			t.Fatal(err)
		}
	}
	loopInv := sys.VGInvocations()
	if batchInv*2 > loopInv {
		t.Errorf("batch spent %d VG invocations vs loop %d; batching should at least halve the cost",
			batchInv, loopInv)
	}
}

// TestBatchReuseCountsOnSharedCache: BatchResult.ReuseCounts is the reuse
// engine's tally when the batch ends. A private engine's is the batch's
// own; on a ReuseCache — what every fpserver /evaluate passes — it is the
// cache's lifetime counts, so a second batch over the same points reports
// the first batch's computed sites again beside its own cached ones.
func TestBatchReuseCountsOnSharedCache(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	var points []map[string]any
	for w := 20; w < 24; w++ {
		points = append(points, map[string]any{"current": w, "purchase1": 8, "purchase2": 40, "feature": 36})
	}
	cache, err := NewReuseCache()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := scn.EvaluateBatch(ctx, points, WithWorlds(64), WithReuseCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	second, err := scn.EvaluateBatch(ctx, points, WithWorlds(64), WithReuseCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	sites := 2 * len(points) // DemandModel and CapacityModel at every point
	if n := first.ReuseCounts["computed"] + first.ReuseCounts["identity"] + first.ReuseCounts["affine"]; n != sites || first.ReuseCounts["cached"] != 0 {
		t.Fatalf("first batch counts %v, want %d sites none of them cached", first.ReuseCounts, sites)
	}
	want := maps.Clone(first.ReuseCounts)
	want["cached"] += sites
	if !maps.Equal(second.ReuseCounts, want) || !maps.Equal(second.ReuseCounts, cache.Counts()) {
		t.Errorf("second batch counts %v, want the cache's lifetime counts %v (= %v)", second.ReuseCounts, want, cache.Counts())
	}

	private, err := scn.EvaluateBatch(ctx, points, WithWorlds(64))
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(private.ReuseCounts, first.ReuseCounts) {
		t.Errorf("a private engine's batch counts %v, want its own %v", private.ReuseCounts, first.ReuseCounts)
	}
}

// TestEvaluateBatchCancellation: a cancelled batch stops promptly.
func TestEvaluateBatchCancellation(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	var points []map[string]any
	for p1 := 0; p1 <= 48; p1 += 4 {
		points = append(points, map[string]any{
			"current": 26, "purchase1": p1, "purchase2": 48, "feature": 36,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := scn.EvaluateBatch(ctx, points, WithWorlds(2000)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCompileErrorCarriesPosition(t *testing.T) {
	sys := demoSystem(t)
	_, err := sys.Compile("DECLARE PARAMETER @p AS RANGE 0 TO 5 STEP BY 1;\nSELECT Gaussian(@p, ;")
	if err == nil {
		t.Fatal("malformed script should not compile")
	}
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not a *CompileError", err)
	}
	if ce.Line != 2 {
		t.Errorf("Line = %d, want 2 (err: %v)", ce.Line, err)
	}
	if ce.Col == 0 {
		t.Errorf("Col = 0, want a position (err: %v)", err)
	}

	// Validation failures (no single source position) still yield a
	// *CompileError, with zero position.
	_, err = sys.Compile("SELECT Gaussian(@undeclared, 1) AS g;")
	if err == nil {
		t.Fatal("undeclared parameter should not compile")
	}
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not a *CompileError", err)
	}
	if ce.Line != 0 {
		t.Errorf("validation error Line = %d, want 0", ce.Line)
	}
}

func TestUnknownParamError(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	var upe *UnknownParamError
	_, err = scn.Evaluate(context.Background(), map[string]any{"nope": 1}, WithWorlds(10))
	if !errors.As(err, &upe) || upe.Name != "nope" {
		t.Errorf("Evaluate err = %v, want *UnknownParamError{nope}", err)
	}
	session, err := scn.OpenSession(WithWorlds(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := session.SetParam("bogus", 1); !errors.As(err, &upe) || upe.Name != "bogus" {
		t.Errorf("SetParam err = %v, want *UnknownParamError{bogus}", err)
	}
	if _, err := scn.GeneratedSQL(map[string]any{"ghost": 3}); !errors.As(err, &upe) || upe.Name != "ghost" {
		t.Errorf("GeneratedSQL err = %v, want *UnknownParamError{ghost}", err)
	}
}

func TestDeterminismError(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = sys.RegisterVG("Flaky", 0, func(seed uint64, args []float64) (float64, error) {
		calls++
		return float64(calls), nil // ignores the seed: nondeterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	var de *DeterminismError
	if err := sys.CheckDeterminism("Flaky", 1, nil); !errors.As(err, &de) || de.Func != "Flaky" {
		t.Errorf("err = %v, want *DeterminismError{Flaky}", err)
	}
}

// TestAsciiCarriesCIAndSecondAxis: the chart round-trip keeps the CI band
// and the y2 placement (it used to drop both).
func TestAsciiCarriesCIAndSecondAxis(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	session, err := scn.OpenSession(WithWorlds(60))
	if err != nil {
		t.Fatal(err)
	}
	g, err := session.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	anyCI := false
	for _, srs := range g.Series {
		for _, ci := range srs.CI95 {
			if ci > 0 {
				anyCI = true
			}
		}
	}
	if !anyCI {
		t.Fatal("render produced no CI95 values; the chart test is vacuous")
	}
	chart, err := session.Ascii(g, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, ":") {
		t.Errorf("chart has no CI band shading:\n%s", chart)
	}
	if !strings.Contains(chart, "(y2)") {
		t.Errorf("chart lost the second-axis placement:\n%s", chart)
	}
}

// figure2Groups8 is the paper's demo scenario with its grouped space cut to
// 2×2×2 groups, so an Optimize test sweeps every group in little time.
const figure2Groups8 = `
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 8 TO 40 STEP BY 32;
DECLARE PARAMETER @purchase2 AS RANGE 16 TO 48 STEP BY 32;
DECLARE PARAMETER @feature AS SET (12,36);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current EXPECT overload WITH bold red, EXPECT capacity WITH blue y2, EXPECT_STDDEV demand WITH orange y2;
OPTIMIZE SELECT @feature, @purchase1, @purchase2 FROM results
WHERE MAX(EXPECT overload) < 0.01 GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2;
`

// TestOptimizeSketchOnlyMatchesFull: Optimize reads the point's aggregates,
// never the sample vectors, so a sketch-only sweep (no vectors at all)
// finds the same feasible set and optimum as the full one. With one range
// per point the sketch's moments are the sequential fold's, so the metrics
// agree to float rounding.
func TestOptimizeSketchOnlyMatchesFull(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2Groups8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := []EvalOption{WithWorlds(60)}
	full, err := scn.Optimize(ctx, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sketched, err := scn.Optimize(ctx, nil, append(opts, WithSketchOnly())...)
	if err != nil {
		t.Fatalf("Optimize with WithSketchOnly: %v", err)
	}
	sameRows := func(kind string, want, got []OptimizeRow) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i].Group) != fmt.Sprint(want[i].Group) || got[i].Feasible != want[i].Feasible {
				t.Errorf("%s row %d = %v feasible=%v, want %v feasible=%v",
					kind, i, got[i].Group, got[i].Feasible, want[i].Group, want[i].Feasible)
			}
			for term, w := range want[i].Metrics {
				if g := got[i].Metrics[term]; math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
					t.Errorf("%s row %d %s = %v, want %v", kind, i, term, g, w)
				}
			}
		}
	}
	if len(full.Rows) != 8 {
		t.Fatalf("sweep explored %d groups, want 8", len(full.Rows))
	}
	sameRows("Rows", full.Rows, sketched.Rows)
	sameRows("Best", full.Best, sketched.Best)
}

// TestOptimizeOneShardCallPerRangePerGroup: over a shard evaluator,
// Optimize sends each world range once per group, carrying the group's
// whole free sweep, and finds the metrics and progress sequence of the
// single-node run bit for bit. A shard count of 0 or 1 is one range,
// [0, worlds).
func TestOptimizeOneShardCallPerRangePerGroup(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2Groups8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(opts ...EvalOption) (*OptimizeResult, []string) {
		t.Helper()
		var progress []string
		res, err := scn.Optimize(ctx, func(done, total int, pt map[string]any, _ map[string]string) {
			progress = append(progress, fmt.Sprint(done, "/", total, " ", pt))
		}, append([]EvalOption{WithWorlds(40), WithoutReuse()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res, progress
	}
	want, wantProgress := run()
	for _, shards := range []int{0, 1, 2} {
		rec := &scriptedShards{scn: scn}
		got, gotProgress := run(WithShardEvaluator(rec, shards))
		ranges := max(shards, 1)
		if len(rec.reqs) != ranges*got.GroupsTotal {
			t.Fatalf("shards=%d: %d shard calls for %d groups, want one per range per group", shards, len(rec.reqs), got.GroupsTotal)
		}
		for _, req := range rec.reqs {
			if len(req.Points) != 53 {
				t.Fatalf("shards=%d: shard call %+v carries %d points, want a group's 53-week sweep", shards, req.Shard, len(req.Points))
			}
			if ranges == 1 && req.Shard != (WorldShard{Lo: 0, Hi: 40}) {
				t.Fatalf("shards=%d: shard call covers %+v, want [0, 40)", shards, req.Shard)
			}
		}
		if fmt.Sprint(gotProgress) != fmt.Sprint(wantProgress) {
			t.Errorf("shards=%d: progress over shards differs from single-node:\n got %v\nwant %v", shards, gotProgress, wantProgress)
		}
		for i, w := range want.Rows {
			g := got.Rows[i]
			for term, wv := range w.Metrics {
				if math.Float64bits(g.Metrics[term]) != math.Float64bits(wv) {
					t.Errorf("shards=%d: group %v %s = %v over shards, %v single-node", shards, w.Group, term, g.Metrics[term], wv)
				}
			}
		}
	}
}

// scriptedShards is a ShardEvaluator that records every request and serves
// it in process. With cutAfterFirst set, shard 1 of the first point waits
// for shard 0 to be served and then cancels the render — a deterministic
// stand-in for a deadline that expires mid-fan-out.
type scriptedShards struct {
	scn *Scenario

	cutAfterFirst context.CancelFunc
	firstServed   chan struct{}

	mu   sync.Mutex
	reqs []ShardRequest
}

func (s *scriptedShards) EvaluateShard(ctx context.Context, req ShardRequest) ([]*ShardResult, error) {
	s.mu.Lock()
	s.reqs = append(s.reqs, req)
	s.mu.Unlock()
	if s.cutAfterFirst != nil && req.Shard.Index == 1 {
		<-s.firstServed
		s.cutAfterFirst()
		return nil, ctx.Err()
	}
	var opts []EvalOption
	if req.SketchOnly {
		opts = append(opts, WithSketchOnly())
	}
	var results []*ShardResult
	var err error
	for _, point := range req.Points {
		var res *ShardResult
		if res, err = s.scn.EvaluateShard(ctx, point, req.Worlds, req.Seed, req.Shard, opts...); err != nil {
			break
		}
		results = append(results, res)
	}
	if s.cutAfterFirst != nil && req.Shard.Index == 0 {
		close(s.firstServed)
	}
	return results, err
}

// TestWarmStartedSessionHonoursOptions: a session warm-started from a
// saved reuse cache resolves its options exactly like a fresh one —
// sketch-only shard requests over the equal split and degraded frames —
// instead of silently dropping them.
func TestWarmStartedSessionHonoursOptions(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewReuseCache()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scn.OpenSession(WithWorlds(80), WithReuseCache(cache)); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(t.TempDir(), "reuse.snap")
	if err := cache.SaveFile(saved); err != nil {
		t.Fatal(err)
	}
	openers := map[string]func(...EvalOption) (*Session, error){
		"OpenSession": scn.OpenSession,
		"WithReuseCache": func(opts ...EvalOption) (*Session, error) {
			loaded, err := LoadReuseCacheFile(saved)
			if err != nil {
				return nil, err
			}
			return scn.OpenSession(append(opts, WithReuseCache(loaded))...)
		},
	}
	graphs := map[string]*Graph{}
	for name, open := range openers {
		t.Run(name, func(t *testing.T) {
			// Sketch-only requests over the equal split.
			rec := &scriptedShards{scn: scn}
			sess, err := open(WithWorlds(80), WithShardEvaluator(rec, 2), WithSketchOnly())
			if err != nil {
				t.Fatal(err)
			}
			g, err := sess.Render(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			graphs[name] = g
			if len(rec.reqs) != 2 {
				t.Fatalf("%d shard requests for one render, want one per shard", len(rec.reqs))
			}
			for _, req := range rec.reqs {
				if len(req.Points) != g.Stats.Points {
					t.Fatalf("shard request %+v carries %d points, want the render's %d", req.Shard, len(req.Points), g.Stats.Points)
				}
				if !req.SketchOnly {
					t.Fatalf("shard request %+v is not sketch-only: WithSketchOnly was dropped", req.Shard)
				}
				if want := [2]WorldShard{{Lo: 0, Hi: 40}, {Lo: 40, Hi: 80, Index: 1}}[req.Shard.Index]; req.Shard != want {
					t.Fatalf("shard %+v, want the equal split %+v", req.Shard, want)
				}
			}

			// A render cut after its first shard served every point is a
			// degraded frame of every point over that shard's worlds, not an
			// error.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cut := &scriptedShards{scn: scn, cutAfterFirst: cancel, firstServed: make(chan struct{})}
			sess, err = open(WithWorlds(80), WithShardEvaluator(cut, 2), WithAllowDegraded())
			if err != nil {
				t.Fatal(err)
			}
			g, err = sess.Render(ctx)
			if err != nil {
				t.Fatalf("cut render: %v (WithAllowDegraded was dropped)", err)
			}
			if !g.Stats.Degraded || g.Stats.Points != 53 || g.Stats.WorldsCompleted != 40 {
				t.Errorf("cut render stats = %+v, want a degraded 53-point frame over 40 worlds", g.Stats)
			}
		})
	}
	if a, b := graphs["OpenSession"], graphs["WithReuseCache"]; a != nil && b != nil {
		for i := range a.Series {
			for j := range a.Series[i].Y {
				if math.Float64bits(a.Series[i].Y[j]) != math.Float64bits(b.Series[i].Y[j]) {
					t.Fatalf("series %s x=%v: restored session renders %v, fresh session %v",
						a.Series[i].Name, a.X[j], b.Series[i].Y[j], a.Series[i].Y[j])
				}
			}
		}
	}
}

// TestConsumersShareOneAggregate: a point is aggregated once, inside the
// executor, and every consumer reads that one fold — so for the same
// (point, worlds, seed) the session graph, Evaluate and Optimize report
// the same float64 bits.
func TestConsumersShareOneAggregate(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(`
DECLARE PARAMETER @current AS SET (30);
DECLARE PARAMETER @purchase1 AS SET (8);
DECLARE PARAMETER @purchase2 AS SET (40);
DECLARE PARAMETER @feature AS SET (12);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current EXPECT overload, EXPECT_STDDEV demand;
OPTIMIZE SELECT @purchase1 FROM results
WHERE MAX(EXPECT overload) < 2 AND MAX(EXPECT_STDDEV demand) >= 0
GROUP BY purchase1, purchase2, feature FOR MAX @purchase1;`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := []EvalOption{WithWorlds(300), WithSeedBase(7)}

	sess, err := scn.OpenSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sess.Render(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := scn.Evaluate(ctx, map[string]any{"current": 30, "purchase1": 8, "purchase2": 40, "feature": 12}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := scn.Optimize(ctx, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Rows) != 1 || len(g.X) != 1 {
		t.Fatalf("want one group and one X; got %d rows, %d X", len(opt.Rows), len(g.X))
	}
	same := func(what string, vals ...float64) {
		t.Helper()
		for _, v := range vals[1:] {
			if math.Float64bits(v) != math.Float64bits(vals[0]) {
				t.Errorf("%s differs across consumers: %v", what, vals)
				return
			}
		}
	}
	overload, demand := g.Series[0], g.Series[1]
	same("EXPECT overload", overload.Y[0], sum["overload"].Mean, opt.Rows[0].Metrics["MAX(EXPECT(overload))"])
	same("CI95 overload", overload.CI95[0], sum["overload"].CI95)
	same("EXPECT_STDDEV demand", demand.Y[0], sum["demand"].StdDev, opt.Rows[0].Metrics["MAX(EXPECT_STDDEV(demand))"])
	same("CI95 demand", demand.CI95[0], sum["demand"].CI95)
	if sum["demand"].StdDev == 0 || sum["overload"].N != 300 {
		t.Errorf("degenerate fixture: %+v", sum)
	}
}
