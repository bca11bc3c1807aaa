package mc

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/stats"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
)

func TestSplitWorlds(t *testing.T) {
	cases := []struct {
		n, k int
		want []WorldRange
	}{
		{10, 2, []WorldRange{{0, 5}, {5, 10}}},
		{10, 3, []WorldRange{{0, 4}, {4, 7}, {7, 10}}},
		{3, 7, []WorldRange{{0, 1}, {1, 2}, {2, 3}}},
		{5, 1, []WorldRange{{0, 5}}},
		{0, 4, nil},
	}
	for _, tc := range cases {
		got := SplitWorlds(tc.n, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("SplitWorlds(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("SplitWorlds(%d,%d)[%d] = %v, want %v", tc.n, tc.k, i, got[i], tc.want[i])
			}
		}
	}
	// Exhaustive invariants: contiguous, non-empty, covering.
	for n := 1; n < 40; n++ {
		for k := 1; k < 20; k++ {
			ranges := SplitWorlds(n, k)
			lo := 0
			for _, r := range ranges {
				if r.Lo != lo || r.Len() <= 0 {
					t.Fatalf("SplitWorlds(%d,%d): bad range %v", n, k, ranges)
				}
				lo = r.Hi
			}
			if lo != n {
				t.Fatalf("SplitWorlds(%d,%d) does not cover [0,%d): %v", n, k, n, ranges)
			}
		}
	}
}

// compileExample compiles one bundled example scenario with its side
// tables attached.
func compileExample(t testing.TB, name string) *scenario.Scenario {
	t.Helper()
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(sqlparser.ExampleScenarios()[name], reg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if name == "serverfleet" {
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

// workerRunner is an in-process ShardRunner: one worker evaluator per
// shard index, kept across calls and retargeted at each task as a pooled
// shard worker is, so its series chains stay warm over a sweep. opts sets
// what a task does not (Workers).
func workerRunner(scn *scenario.Scenario, opts Options) ShardRunner {
	var mu sync.Mutex
	workers := map[int]*Evaluator{}
	return func(ctx context.Context, task ShardTask) ([]*ShardOutput, error) {
		mu.Lock()
		w, ok := workers[task.Index]
		if !ok {
			w = NewEvaluator(scn, opts)
			workers[task.Index] = w
		}
		mu.Unlock()
		w.Reconfigure(task.Worlds, task.SeedBase, task.SketchOnly)
		return w.EvaluateShard(ctx, task.Points, task.Range)
	}
}

// threeTableSources are serverfleet with a third FROM table, so the plan
// joins worlds × regions × tiers: once as two cross products, once with the
// tiers hash-joined to their home region (us-east holds two tiers, asia none).
var threeTableSources = map[string]string{
	"worlds-x-regions-x-tiers": `
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @feature AS SET (12, 36);
SELECT region, tier,
       DemandModel(@current, @feature) * share * weight AS tier_demand,
       CASE WHEN tier_demand > local_capacity * weight THEN 1 ELSE 0 END AS strained
FROM regions, tiers;
GRAPH OVER @current EXPECT strained, EXPECT tier_demand;
`,
	"worlds-x-regions-join-tiers": `
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @feature AS SET (12, 36);
SELECT region, tier,
       DemandModel(@current, @feature) * share * weight AS tier_demand,
       CASE WHEN tier_demand > local_capacity * weight THEN 1 ELSE 0 END AS strained
FROM regions JOIN tiers ON tiers.home = regions.region;
GRAPH OVER @current EXPECT strained, EXPECT tier_demand;
`,
}

// compileThreeTable compiles one of threeTableSources with its two side
// tables attached.
func compileThreeTable(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(threeTableSources[name], reg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	regions, err := benchfix.RegionsTable()
	if err != nil {
		t.Fatal(err)
	}
	tiers, err := sqlengine.NewTable("tiers", []string{"tier", "home", "weight"}, [][]value.Value{
		{value.Str("gold"), value.Str("us-east"), value.Float(0.5)},
		{value.Str("silver"), value.Str("europe"), value.Float(0.3)},
		{value.Str("bronze"), value.Str("us-east"), value.Float(0.2)},
		{value.Str("spare"), value.Str("us-west"), value.Float(0.1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*sqlengine.Table{regions, tiers} {
		if err := scn.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return scn
}

// TestShardedEvaluationBitIdentical: for every shipped scenario (the five
// bundled examples and the benchmark's two copies), and for the three-table
// scenarios, evaluation fanned out to in-process workers at 1, 2, 7 and 16
// shards produces byte-for-byte the same per-world output vectors — and
// therefore bit-identical EXPECT / EXPECT_STDDEV / PROB — as the one-range
// local evaluation, and the point's aggregates agree with exact quantiles
// within the sketch tolerance. Then the mode table — local at one range,
// and in-process Runner at shards {1, 3, 7}, × reuse {on, off} — must
// return those same columns AND aggregates that are, bit for bit, one
// sequential fold of the one-range column: no split, reuse outcome or
// executor may leak into a full-vector point's statistics.
func TestShardedEvaluationBitIdentical(t *testing.T) {
	ctx := context.Background()
	const worlds = 500
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	shipped := shippedSources(t)
	names := append(sqlparser.ExampleScenarioNames(), "worlds-x-regions-x-tiers", "worlds-x-regions-join-tiers")
	for name := range shipped {
		if strings.HasPrefix(name, "bench/") {
			names = append(names, name)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var scn *scenario.Scenario
			if _, ok := threeTableSources[name]; ok {
				scn = compileThreeTable(t, name)
			} else if src, ok := shipped[name]; ok {
				if scn, err = scenario.Compile(src, reg); err != nil {
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
			} else {
				scn = compileExample(t, name)
			}
			if !scn.Plan().Shardable() {
				t.Fatalf("%s: plan is not shardable", name)
			}
			pt := scn.DefaultPoint()
			base := NewEvaluator(scn, Options{Worlds: worlds})
			want, err := base.evaluatePoint(ctx, pt)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Columns) == 0 {
				t.Fatalf("%s: no output columns", name)
			}
			for _, shards := range []int{1, 2, 7, 16} {
				ev := NewEvaluator(scn, Options{Worlds: worlds, Shards: shards, Runner: workerRunner(scn, Options{})})
				got, err := ev.evaluatePoint(ctx, pt)
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				assertSameColumns(t, shards, want, got)
				if shards > 1 {
					if got.Sketches == nil {
						t.Fatalf("%d shards: no merged sketches", shards)
					}
					for col, cs := range got.Sketches {
						exact, err := stats.Quantile(want.Columns[col], 0.95)
						if err != nil {
							t.Fatal(err)
						}
						lo, _ := stats.Quantile(want.Columns[col], 0.90)
						hi, _ := stats.Quantile(want.Columns[col], 1)
						if p95 := cs.P95(); p95 < lo || p95 > hi {
							t.Errorf("%d shards: %s sketch p95 %g outside [%g,%g] (exact %g)",
								shards, col, p95, lo, hi, exact)
						}
						if cs.Count() != int64(len(want.Columns[col])) {
							t.Errorf("%d shards: %s sketch count %d, want %d",
								shards, col, cs.Count(), len(want.Columns[col]))
						}
					}
				}
			}

			// The mode table. The in-process runner is a shard worker
			// without the HTTP hop: a fresh evaluator per shard.
			runner := func(ctx context.Context, task ShardTask) ([]*ShardOutput, error) {
				worker := NewEvaluator(scn, Options{Worlds: task.Worlds, SeedBase: task.SeedBase, SketchOnly: task.SketchOnly})
				return worker.EvaluateShard(ctx, task.Points, task.Range)
			}
			for _, shards := range []int{1, 3, 7} {
				for _, withReuse := range []bool{false, true} {
					for _, remote := range []bool{false, true} {
						if !remote && shards > 1 {
							continue // in process a point is one range
						}
						mode := fmt.Sprintf("shards=%d reuse=%v remote=%v", shards, withReuse, remote)
						opts := Options{Worlds: worlds, Shards: shards}
						if withReuse {
							if opts.Reuse, err = NewReuse(core.DefaultConfig(), storage.Options{}); err != nil {
								t.Fatal(err)
							}
						}
						if remote {
							opts.Runner = runner
						}
						ev := NewEvaluator(scn, opts)
						// Twice: with reuse on, the second pass is served
						// from the basis store.
						for pass := 0; pass < 2; pass++ {
							got, err := ev.evaluatePoint(ctx, pt)
							if err != nil {
								t.Fatalf("%s pass %d: %v", mode, pass, err)
							}
							assertSameColumns(t, shards, want, got)
							assertSequentialFold(t, mode, want, got)
						}
					}
				}
			}
		})
	}
}

func assertSameColumns(t *testing.T, shards int, want, got *PointResult) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%d shards: %d columns, want %d", shards, len(got.Columns), len(want.Columns))
	}
	for col, w := range want.Columns {
		g, ok := got.Columns[col]
		if !ok {
			t.Fatalf("%d shards: missing column %q", shards, col)
		}
		if len(g) != len(w) {
			t.Fatalf("%d shards: column %q has %d rows, want %d", shards, col, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] && !(math.IsNaN(g[i]) && math.IsNaN(w[i])) {
				t.Fatalf("%d shards: column %q world %d = %v, want %v (bit-identity violated)",
					shards, col, i, g[i], w[i])
			}
		}
		// Aggregating the stitched vectors must therefore be bit-identical.
		ws, gs := aggregate.NewColumnStats(), aggregate.NewColumnStats()
		ws.AddAll(w)
		gs.AddAll(g)
		if ws.Expect() != gs.Expect() || ws.StdDev() != gs.StdDev() || ws.Prob() != gs.Prob() {
			t.Fatalf("%d shards: column %q aggregate mismatch", shards, col)
		}
	}
}

// assertSequentialFold: every column's aggregate is bit-equal to ONE
// sequential ColumnStats.AddAll over the one-range column.
func assertSequentialFold(t *testing.T, mode string, want, got *PointResult) {
	t.Helper()
	if len(got.Sketches) != len(want.Columns) {
		t.Fatalf("%s: %d aggregates for %d columns", mode, len(got.Sketches), len(want.Columns))
	}
	for col, w := range want.Columns {
		cs, ok := got.Sketches[col]
		if !ok {
			t.Fatalf("%s: no aggregate for column %q", mode, col)
		}
		direct := aggregate.NewColumnStats()
		direct.AddAll(w)
		g, d := cs.Sketch(), direct.Sketch()
		for _, f := range []struct {
			name string
			g, d float64
		}{
			{"count", float64(g.Count), float64(d.Count)},
			{"mean", g.Mean, d.Mean},
			{"m2", g.M2, d.M2},
			{"min", g.Min, d.Min},
			{"max", g.Max, d.Max},
			{"median", cs.Median(), direct.Median()},
			{"p95", cs.P95(), direct.P95()},
		} {
			if math.Float64bits(f.g) != math.Float64bits(f.d) {
				t.Fatalf("%s: column %q %s = %v, want %v (not one sequential fold)", mode, col, f.name, f.g, f.d)
			}
		}
	}
}

// TestShardedEvaluationWithReuse: the range pipeline composes with the
// fingerprint reuse engine — the coordinator computes reuse-aware site
// vectors, its one range reads them, and the output still matches bit for
// bit.
func TestShardedEvaluationWithReuse(t *testing.T) {
	ctx := context.Background()
	const worlds = 400
	scn := compileExample(t, "capacityplanning")
	pt := scn.DefaultPoint()

	base := NewEvaluator(scn, Options{Worlds: worlds})
	want, err := base.evaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}

	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(scn, Options{Worlds: worlds, Reuse: reuse})
	first, err := ev.evaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameColumns(t, 1, want, first)
	for site, kind := range first.SiteOutcome {
		if kind != Computed {
			t.Errorf("first render site %s = %v, want computed", site, kind)
		}
	}
	// Second render at the same point: exact cache hits, same bits.
	second, err := ev.evaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameColumns(t, 1, want, second)
	for site, kind := range second.SiteOutcome {
		if kind != CachedExact {
			t.Errorf("second render site %s = %v, want cached", site, kind)
		}
	}
}

// TestEvaluateShardStitch: a full render reassembled from worker-style
// EvaluateShard calls (self-simulating partial evaluations, as the HTTP
// worker performs them) matches the single-range render bit for bit.
func TestEvaluateShardStitch(t *testing.T) {
	ctx := context.Background()
	const worlds = 300
	for _, name := range []string{"capacityplanning", "serverfleet"} {
		scn := compileExample(t, name)
		pt := scn.DefaultPoint()
		base := NewEvaluator(scn, Options{Worlds: worlds})
		want, err := base.evaluatePoint(ctx, pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 7} {
			outs := make([]*ShardOutput, 0, shards)
			for _, r := range SplitWorlds(worlds, shards) {
				// A fresh evaluator per shard: workers share nothing.
				worker := NewEvaluator(scn, Options{Worlds: worlds})
				out, err := worker.EvaluateShard(ctx, []guide.Point{pt}, r)
				if err != nil {
					t.Fatalf("%s shard %v: %v", name, r, err)
				}
				outs = append(outs, out[0])
			}
			columns, _, err := stitchShards(outs)
			if err != nil {
				t.Fatal(err)
			}
			for col, w := range want.Columns {
				g := columns[col]
				if len(g) != len(w) {
					t.Fatalf("%s %d shards: column %q rows %d, want %d", name, shards, col, len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("%s %d shards: column %q row %d mismatch", name, shards, col, i)
					}
				}
			}
		}
	}
}

// TestPlanShardableByClause pins which SELECT clauses keep a plan shardable:
// any FROM shape and WHERE do; grouping, the whole-result post-operators
// and INTO do not.
func TestPlanShardableByClause(t *testing.T) {
	for _, c := range []struct {
		sql  string
		want bool
	}{
		{"SELECT a FROM t;", true},
		{"SELECT a, a * 2 AS d FROM t WHERE a > 1;", true},
		{"SELECT a, b FROM t, u;", true},
		{"SELECT a FROM t JOIN u ON t.k = u.k;", true},
		{"SELECT a FROM t LEFT JOIN u ON t.k = u.k JOIN v ON v.x > t.a, w;", true},
		{"SELECT SUM(a) AS s FROM t;", false},
		{"SELECT a FROM t GROUP BY a;", false},
		{"SELECT a FROM t HAVING a > 1;", false},
		{"SELECT DISTINCT a FROM t;", false},
		{"SELECT a FROM t ORDER BY a;", false},
		{"SELECT a FROM t LIMIT 3;", false},
		{"SELECT a INTO x FROM t;", false},
	} {
		script, err := sqlparser.Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		plan := sqlengine.CompileSelect(script.Statements[0].(sqlparser.Select))
		if got := plan.Shardable(); got != c.want {
			t.Errorf("%s Shardable() = %v, want %v", c.sql, got, c.want)
		}
	}
}

// TestShippedScenariosShardable: every scenario script the repo ships —
// the five bundled examples and the benchmark's two copies — compiles to a
// shardable plan, so none of them renders single-range behind a fleet.
func TestShippedScenariosShardable(t *testing.T) {
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range shippedSources(t) {
		scn, err := scenario.Compile(src, reg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !scn.Plan().Shardable() {
			t.Errorf("%s: plan is not shardable", name)
		}
	}
}

// shippedSources returns the seven scenario scripts the repo ships, keyed
// "examples/<name>" and "bench/<file>".
func shippedSources(t *testing.T) map[string]string {
	t.Helper()
	sources := map[string]string{}
	for name, src := range sqlparser.ExampleScenarios() {
		sources["examples/"+name] = src
	}
	benchFiles, err := filepath.Glob("../../bench/scenarios/*.fp")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range benchFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources["bench/"+filepath.Base(path)] = string(src)
	}
	if len(sources) != 7 {
		t.Fatalf("found %d shipped scenario scripts, want 7", len(sources))
	}
	return sources
}

func TestEvaluateShardValidation(t *testing.T) {
	ctx := context.Background()
	scn := compileExample(t, "capacityplanning")
	ev := NewEvaluator(scn, Options{Worlds: 100})
	for _, r := range []WorldRange{{-1, 10}, {0, 101}, {5, 5}, {9, 3}} {
		if _, err := ev.EvaluateShard(ctx, []guide.Point{scn.DefaultPoint()}, r); err == nil {
			t.Errorf("EvaluateShard(%v) should reject the range", r)
		}
	}
}

// TestShardedRunnerFallback: a runner that always fails must not fail the
// render — every shard falls back to local evaluation, bit-identically.
func TestShardedRunnerFallback(t *testing.T) {
	ctx := context.Background()
	const worlds = 200
	scn := compileExample(t, "capacityplanning")
	pt := scn.DefaultPoint()
	base := NewEvaluator(scn, Options{Worlds: worlds})
	want, err := base.evaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	failing := func(ctx context.Context, task ShardTask) ([]*ShardOutput, error) {
		calls.Add(1)
		return nil, fmt.Errorf("worker down")
	}
	ev := NewEvaluator(scn, Options{Worlds: worlds, Shards: 3, Runner: failing})
	got, err := ev.evaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("runner called %d times, want 3", calls.Load())
	}
	assertSameColumns(t, 3, want, got)
}

// TestShardedCategoricalColumnWithEmptyShards: a categorical (string)
// output column must be skipped consistently even when a WHERE clause
// leaves some shards with zero rows — an empty shard cannot see the
// column's type, so the stitch reconciles the skip instead of erroring.
func TestShardedCategoricalColumnWithEmptyShards(t *testing.T) {
	ctx := context.Background()
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	src := `
DECLARE PARAMETER @t AS SET (5);
SELECT DemandModel(@t, @t) AS demand, 'label' AS tag WHERE __world < 3;
GRAPH OVER @t EXPECT demand;
`
	scn, err := scenario.Compile(src, reg)
	if err != nil {
		t.Fatal(err)
	}
	pt := scn.DefaultPoint()
	want, err := NewEvaluator(scn, Options{Worlds: 10}).evaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := want.Columns["tag"]; ok {
		t.Fatal("single-range render should skip the categorical column")
	}
	if len(want.Columns["demand"]) != 3 {
		t.Fatalf("demand has %d rows, want 3", len(want.Columns["demand"]))
	}
	// With 4 shards of 10 worlds, only shard [0,3) has rows: the others
	// carry the tag column as empty while shard 0 skips it as categorical.
	got, err := NewEvaluator(scn, Options{Worlds: 10, Shards: 4, Runner: workerRunner(scn, Options{})}).evaluatePoint(ctx, pt)
	if err != nil {
		t.Fatalf("sharded render with empty shards: %v", err)
	}
	assertSameColumns(t, 4, want, got)
	if _, ok := got.Columns["tag"]; ok {
		t.Error("sharded render should skip the categorical column too")
	}
}

// TestNonShardablePlanIsOneLocalRange: a grouped scenario query cannot be
// split, so whatever the options ask for — four shards, sketch-only, a
// remote runner — it evaluates as one local range (reuse-aware, the runner
// never called) and still returns its aggregates. A shardable plan asked
// for three shards without a runner is one local range too, bit-identical
// to one shard.
func TestNonShardablePlanIsOneLocalRange(t *testing.T) {
	ctx := context.Background()
	reg, err := benchfix.Registry()
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(`
DECLARE PARAMETER @t AS SET (5);
SELECT __world % 10 AS bucket, DemandModel(@t, @t) AS demand GROUP BY __world % 10;
GRAPH OVER @t EXPECT demand;
`, reg)
	if err != nil {
		t.Fatal(err)
	}
	if scn.Plan().Shardable() {
		t.Fatal("grouped plan reports shardable")
	}
	pt := scn.DefaultPoint()
	want, err := NewEvaluator(scn, Options{Worlds: 50}).evaluatePoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Columns["demand"]) != 10 {
		t.Fatalf("demand has %d rows, want 10 groups", len(want.Columns["demand"]))
	}
	reuse, err := NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := func(context.Context, ShardTask) ([]*ShardOutput, error) {
		t.Error("runner called for a non-shardable plan")
		return nil, fmt.Errorf("unreachable")
	}
	tr := obs.New("render", "")
	ev := NewEvaluator(scn, Options{Worlds: 50, Shards: 4, SketchOnly: true, Runner: runner, Reuse: reuse})
	got, err := ev.evaluatePoint(obs.With(ctx, tr.Root()), pt)
	if err != nil {
		t.Fatal(err)
	}
	tr.End()
	if got.Columns != nil {
		t.Error("sketch-only result carries sample vectors")
	}
	for col, w := range want.Sketches {
		g, ok := got.Sketches[col]
		if !ok || g.Count() != w.Count() || g.Expect() != w.Expect() || g.StdDev() != w.StdDev() {
			t.Errorf("column %q: aggregate %+v, want %+v", col, g, w)
		}
	}
	if n := reuse.Counts()[Computed]; n != len(scn.Sites) {
		t.Errorf("reuse engine recorded %d computed sites, want %d", n, len(scn.Sites))
	}
	// One local range: the stage spans sit directly under the point, with
	// no fan-out.
	oneLocalRange := func(what string, tr *obs.Trace) {
		t.Helper()
		seen := map[string]int{}
		tr.Tree().Visit(func(_ int, n *obs.Node) { seen[n.Name]++ })
		for _, stage := range []string{"point", "simulate", "worlds-materialize", "plan-execute", "sketch-merge"} {
			if seen[stage] != 1 {
				t.Errorf("%s: trace has %d %q spans, want 1; got %v", what, seen[stage], stage, seen)
			}
		}
		if seen["shard-fanout"]+seen["shard"] != 0 {
			t.Errorf("%s: one local range must not fan out; got %v", what, seen)
		}
	}
	oneLocalRange("grouped plan", tr)

	shardable := compileExample(t, "capacityplanning")
	spt := shardable.DefaultPoint()
	one, err := NewEvaluator(shardable, Options{Worlds: 50, Shards: 1}).evaluatePoint(ctx, spt)
	if err != nil {
		t.Fatal(err)
	}
	tr = obs.New("render", "")
	three, err := NewEvaluator(shardable, Options{Worlds: 50, Shards: 3}).evaluatePoint(obs.With(ctx, tr.Root()), spt)
	if err != nil {
		t.Fatal(err)
	}
	tr.End()
	assertSameColumns(t, 3, one, three)
	assertSequentialFold(t, "shards=3 without a runner", one, three)
	oneLocalRange("shards=3 without a runner", tr)
}

// TestDegradedHarvestOverVectorAnswers: a worker's vector answer carries no
// sketch, so the coordinator's degraded harvest folds the vectors itself.
// That must give the merged aggregate the harvest gave when the answer also
// carried the sketch the worker folded from the same stitched vectors,
// bit for bit.
func TestDegradedHarvestOverVectorAnswers(t *testing.T) {
	ctx := context.Background()
	scn := compileExample(t, "capacityplanning")
	pt := scn.DefaultPoint()
	const worlds = 120
	ranges := SplitWorlds(worlds, 2)
	worker := NewEvaluator(scn, Options{Worlds: worlds})
	got, err := worker.EvaluateShard(ctx, []guide.Point{pt}, ranges[0])
	if err != nil {
		t.Fatal(err)
	}
	vectorOnly := got[0]
	if vectorOnly.Sketches != nil || len(vectorOnly.Columns) == 0 {
		t.Fatalf("vector answer carries %d vectors and %d sketches", len(vectorOnly.Columns), len(vectorOnly.Sketches))
	}
	withSketches := &ShardOutput{Rows: vectorOnly.Rows, Columns: vectorOnly.Columns, Sketches: map[string]aggregate.ColumnSketch{}}
	for col, fs := range vectorOnly.Columns {
		cs := aggregate.NewColumnStats()
		cs.AddAll(fs)
		withSketches.Sketches[col] = cs.Sketch()
	}
	harvest := func(out *ShardOutput) map[string]*aggregate.ColumnStats {
		t.Helper()
		ev := NewEvaluator(scn, Options{Worlds: worlds, AllowDegraded: true})
		res := &PointResult{}
		if !ev.harvestDegraded(res, ranges, []*ShardOutput{out, nil}, []error{nil, context.DeadlineExceeded}, nil) {
			t.Fatal("nothing harvested from the completed range")
		}
		if !res.Degraded || res.WorldsCompleted != ranges[0].Len() {
			t.Fatalf("harvest = degraded %v over %d worlds, want %d", res.Degraded, res.WorldsCompleted, ranges[0].Len())
		}
		return res.Sketches
	}
	want, have := harvest(withSketches), harvest(vectorOnly)
	if len(have) != len(want) {
		t.Fatalf("%d harvested columns, want %d", len(have), len(want))
	}
	bits := math.Float64bits
	for col, w := range want {
		g, ws := have[col].Sketch(), w.Sketch()
		if g.Count != ws.Count || bits(g.Mean) != bits(ws.Mean) || bits(g.M2) != bits(ws.M2) ||
			bits(g.Min) != bits(ws.Min) || bits(g.Max) != bits(ws.Max) || len(g.Centroids) != len(ws.Centroids) {
			t.Fatalf("column %q: harvested %+v, want %+v", col, g, ws)
		}
		for k, c := range ws.Centroids {
			if gc := g.Centroids[k]; bits(gc.Mean) != bits(c.Mean) || bits(gc.Weight) != bits(c.Weight) {
				t.Fatalf("column %q centroid %d = %+v, want %+v", col, k, gc, c)
			}
		}
	}
}
