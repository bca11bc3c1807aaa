// Command fuzzyprophet runs a Fuzzy Prophet scenario file in online or
// offline mode.
//
// Online mode renders the scenario's GRAPH as an ASCII chart at given
// slider positions, optionally applies adjustments and re-renders, showing
// how much of the graph was served by fingerprint reuse:
//
//	fuzzyprophet -scenario demo.fp -mode online \
//	    -set purchase1=16 -set purchase2=32 -adjust purchase1=24
//
// Offline mode runs the scenario's OPTIMIZE statement over the whole
// parameter space and prints the feasible groups and the optimum:
//
//	fuzzyprophet -scenario demo.fp -mode offline -worlds 300
//
// With -explain the scenario is rendered once under a trace and the
// stage/operator time breakdown is printed instead of the chart:
//
//	fuzzyprophet -explain -worlds 400
//
// With no -scenario flag the paper's Figure 2 demo scenario is used.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/buildinfo"
	"fuzzyprophet/internal/cli"
)

// figure2 is the built-in demo scenario (paper Figure 2, step-8 purchase
// grid, prose threshold 5%, ordered purchases).
const figure2 = `
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 8;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY 8;
DECLARE PARAMETER @feature AS SET (12,36,44);

SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;

GRAPH OVER @current
      EXPECT overload WITH bold red,
      EXPECT capacity WITH blue y2,
      EXPECT_STDDEV demand WITH orange y2;

OPTIMIZE SELECT @feature, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.05 AND @purchase1 <= @purchase2
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2;
`

type paramFlags []string

func (p *paramFlags) String() string { return strings.Join(*p, ",") }
func (p *paramFlags) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario file (default: built-in Figure 2 demo)")
		mode         = flag.String("mode", "online", "online | offline | sql")
		worlds       = flag.Int("worlds", 400, "Monte Carlo worlds per point")
		seed         = flag.Uint64("seed", 0, "world seed base (0 = default)")
		noReuse      = flag.Bool("noreuse", false, "disable fingerprint reuse")
		storeBudget  = flag.Int64("store-budget", 0, "basis-store RAM budget in bytes (0 = unbounded)")
		spillDir     = flag.String("spill-dir", "", "directory for out-of-core basis spill (empty = RAM-only)")
		spillBudget  = flag.Int64("spill-budget", 0, "spill-tier disk budget in bytes (0 = unbounded)")
		height       = flag.Int("height", 14, "chart height in rows")
		// The §3.3 demo knobs: vary the simulation characteristics.
		initialCapacity = flag.Float64("initial-capacity", 0, "override the fleet's week-0 capacity (cores)")
		batchCores      = flag.Float64("batch-cores", 0, "override the capacity one purchase adds")
		demandBase      = flag.Float64("demand-base", 0, "override expected week-0 demand")
		demandGrowth    = flag.Float64("demand-growth", 0, "override expected weekly demand growth")
		explain         = flag.Bool("explain", false, "render once and print the stage/operator time breakdown instead of the chart")
		version         = flag.Bool("version", false, "print version and exit")
		sets            paramFlags
		adjusts         paramFlags
	)
	flag.Var(&sets, "set", "initial slider position, param=value (repeatable)")
	flag.Var(&adjusts, "adjust", "adjustment applied after the first render, param=value (repeatable)")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("fuzzyprophet"))
		return
	}

	// Ctrl-C (or SIGTERM) cancels the context; every simulation loop checks
	// it per world-batch, so a long render or sweep aborts cleanly instead
	// of running to completion.
	ctx, stop := cli.SignalContext()
	defer stop()

	src := figure2
	if *scenarioPath != "" {
		data, err := os.ReadFile(*scenarioPath)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}

	sys, err := fp.New(fp.WithCalibratedDemoModels(fp.Calibration{
		InitialCapacity: *initialCapacity,
		BatchCores:      *batchCores,
		DemandBase:      *demandBase,
		DemandGrowth:    *demandGrowth,
	}))
	if err != nil {
		fatal(err)
	}
	scn, err := sys.Compile(src)
	if err != nil {
		fatal(err)
	}
	opts := []fp.EvalOption{fp.WithWorlds(*worlds), fp.WithSeedBase(*seed)}
	if *noReuse {
		opts = append(opts, fp.WithoutReuse())
	}
	if *storeBudget > 0 {
		opts = append(opts, fp.WithStoreBudget(*storeBudget))
	}
	if *spillDir != "" {
		opts = append(opts, fp.WithSpillDir(*spillDir), fp.WithSpillBudget(*spillBudget))
	}

	if *explain {
		runExplain(ctx, scn, opts, sets)
		return
	}

	switch *mode {
	case "online":
		runOnline(ctx, scn, opts, sets, adjusts, *height)
	case "offline":
		runOffline(ctx, sys, scn, opts)
	case "sql":
		runSQL(scn, sets)
	default:
		fatal(fmt.Errorf("unknown mode %q (want online, offline or sql)", *mode))
	}
}

func runOnline(ctx context.Context, scn *fp.Scenario, opts []fp.EvalOption, sets, adjusts paramFlags, height int) {
	session, err := scn.OpenSession(opts...)
	if err != nil {
		fatal(err)
	}
	if err := applyParams(session, sets); err != nil {
		fatal(err)
	}
	g, err := session.Render(ctx)
	if err != nil {
		fatal(err)
	}
	chart, err := session.Ascii(g, height)
	if err != nil {
		fatal(err)
	}
	fmt.Println(chart)
	if len(adjusts) == 0 {
		return
	}
	if err := applyParams(session, adjusts); err != nil {
		fatal(err)
	}
	fmt.Printf("--- after adjusting %s ---\n", adjusts.String())
	g, err = session.Render(ctx)
	if err != nil {
		fatal(err)
	}
	chart, err = session.Ascii(g, height)
	if err != nil {
		fatal(err)
	}
	fmt.Println(chart)
	fmt.Printf("reuse outcomes: %s\n", formatOutcomes(session.ReuseCounts()))
}

// formatOutcomes prints the four reuse outcomes in fixed order, zeros
// included, so runs diff cleanly and a missing outcome reads as 0, not as
// an absent map key.
func formatOutcomes(counts map[string]int) string {
	return fmt.Sprintf("computed=%d cached=%d identity=%d affine=%d",
		counts["computed"], counts["cached"], counts["identity"], counts["affine"])
}

// runExplain renders the scenario once under a RenderTrace and prints the
// merged stage/operator breakdown: where a render's time goes (simulate
// vs. plan execution vs. merge), per-operator row counts, spill work.
func runExplain(ctx context.Context, scn *fp.Scenario, opts []fp.EvalOption, sets paramFlags) {
	session, err := scn.OpenSession(opts...)
	if err != nil {
		fatal(err)
	}
	if err := applyParams(session, sets); err != nil {
		fatal(err)
	}
	rt := fp.NewRenderTrace()
	if _, err := session.Render(fp.WithTrace(ctx, rt)); err != nil {
		fatal(err)
	}
	rt.End()
	fmt.Printf("render %s (%v)\n\n", rt.ID(), rt.Duration().Round(time.Microsecond))
	fmt.Print(rt.Format())
	fmt.Printf("\nreuse outcomes: %s\n", formatOutcomes(session.ReuseCounts()))
}

func runOffline(ctx context.Context, sys *fp.System, scn *fp.Scenario, opts []fp.EvalOption) {
	sys.ResetVGInvocations()
	lastPct := -1
	res, err := scn.Optimize(ctx, func(done, total int, pt map[string]any, outcome map[string]string) {
		pct := done * 100 / total
		if pct/10 != lastPct/10 {
			fmt.Fprintf(os.Stderr, "\r%3d%% (%d/%d points)", pct, done, total)
			lastPct = pct
		}
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("explored %d points in %v; VG invocations %d; reuse %s\n\n",
		res.PointsEvaluated, res.Elapsed.Round(1e6), sys.VGInvocations(), formatOutcomes(res.ReuseCounts))

	rows := append([]fp.OptimizeRow(nil), res.Rows...)
	sort.Slice(rows, func(i, j int) bool {
		return groupKey(rows[i]) < groupKey(rows[j])
	})
	nFeasible := 0
	for _, r := range rows {
		if r.Feasible {
			nFeasible++
		}
	}
	fmt.Printf("feasible groups: %d / %d\n", nFeasible, len(rows))
	for _, b := range res.Best {
		fmt.Printf("OPTIMUM: %s   metrics: %v\n", groupKey(b), fmtMetrics(b.Metrics))
	}
}

func runSQL(scn *fp.Scenario, sets paramFlags) {
	point := map[string]any{}
	for _, p := range scn.Params() {
		point[p.Name] = p.Values[0]
	}
	for _, kv := range sets {
		name, val, err := splitParam(kv)
		if err != nil {
			fatal(err)
		}
		point[name] = val
	}
	sql, err := scn.GeneratedSQL(point)
	if err != nil {
		fatal(err)
	}
	fmt.Println("-- pure TSQL emitted by the Query Generator for point", point)
	fmt.Println(sql)
}

func applyParams(session *fp.Session, kvs paramFlags) error {
	for _, kv := range kvs {
		name, val, err := splitParam(kv)
		if err != nil {
			return err
		}
		if err := session.SetParam(name, val); err != nil {
			return err
		}
	}
	return nil
}

func splitParam(kv string) (string, any, error) {
	i := strings.IndexByte(kv, '=')
	if i <= 0 {
		return "", nil, fmt.Errorf("bad parameter setting %q (want name=value)", kv)
	}
	name := strings.TrimPrefix(kv[:i], "@")
	raw := kv[i+1:]
	if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return name, n, nil
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return name, f, nil
	}
	return name, raw, nil
}

func groupKey(r fp.OptimizeRow) string {
	names := make([]string, 0, len(r.Group))
	for n := range r.Group {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%v", n, r.Group[n])
	}
	return strings.Join(parts, " ")
}

func fmtMetrics(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%.4f", n, m[n])
	}
	return strings.Join(parts, " ")
}

// fatal reports the error and exits. Context cancellation — Ctrl-C during
// any mode — gets the conventional 128+SIGINT exit code so scripts can tell
// an interrupt from a real failure.
func fatal(err error) {
	cli.Fatal("fuzzyprophet", err)
}
