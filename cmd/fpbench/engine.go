package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
)

// The engine experiment: the 1000-world render path — executing the Query
// Generator's pure TSQL over a materialized possible-worlds table — timed
// on the row-at-a-time reference executor and as a compiled plan, for each
// of the five bundled example scenarios. Besides ns/op, the compiled path
// reports allocs/op and bytes/op, so the plans' buffer reuse is tracked, not
// just raw latency. Results are printed as a table and written as JSON
// (BENCH_engine.json) for CI artifact upload, the README's performance
// section, and the -check regression gate.

// engineBenchResult is one scenario's measurement on the two executors.
type engineBenchResult struct {
	Scenario        string  `json:"scenario"`
	Worlds          int     `json:"worlds"`
	RowNsPerOp      float64 `json:"row_ns_per_op"`
	CompiledNsPerOp float64 `json:"compiled_ns_per_op"`
	// Speedup is row/compiled: the machine-normalized number -check gates.
	Speedup float64 `json:"speedup"`
	// The row executor's boxed allocations are not worth tracking.
	CompiledAllocsPerOp float64 `json:"compiled_allocs_per_op"`
	CompiledBytesPerOp  float64 `json:"compiled_bytes_per_op"`
}

// engineBenchReport is the BENCH_engine.json schema.
type engineBenchReport struct {
	Benchmark string              `json:"benchmark"`
	GOOS      string              `json:"goos"`
	GOARCH    string              `json:"goarch"`
	CPUs      int                 `json:"cpus"`
	Worlds    int                 `json:"worlds"`
	Results   []engineBenchResult `json:"results"`
}

// materializeWorlds simulates every VG call site at the scenario's default
// point with the Monte Carlo executor's world-seed derivation
// (mc.WorldSeed under the default seed base), producing the columnar
// possible-worlds table the render path executes over.
func materializeWorlds(ctx context.Context, scn *scenario.Scenario, worlds int) (*sqlengine.ColTable, error) {
	cols := []string{scenario.WorldColumn}
	ord := make([]int64, worlds)
	for i := range ord {
		ord[i] = int64(i)
	}
	columns := []*sqlengine.Column{sqlengine.IntColumn(ord)}
	pt := scn.DefaultPoint()
	for si := range scn.Sites {
		site := &scn.Sites[si]
		args, _, err := site.ArgValues(pt)
		if err != nil {
			return nil, err
		}
		samples := make([]float64, worlds)
		for i := 0; i < worlds; i++ {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			seed := mc.WorldSeed(mc.DefaultSeedBase, site.ID, i)
			v, err := scn.Registry.Invoke(site.Name, seed, args)
			if err != nil {
				return nil, err
			}
			samples[i], err = v.AsFloat()
			if err != nil {
				return nil, err
			}
		}
		cols = append(cols, site.Column)
		columns = append(columns, sqlengine.FloatColumn(samples))
	}
	return sqlengine.NewColTable(scenario.WorldsTable, cols, columns)
}

// timeEngine measures ns/op, allocs/op and bytes/op of one execution mode,
// running at least minIters iterations and at least minDur of wall clock.
// Allocation counters come from runtime.MemStats deltas over the
// single-goroutine timing loop.
func timeEngine(ctx context.Context, run func() error, minIters int, minDur time.Duration) (nsPerOp, allocsPerOp, bytesPerOp float64, err error) {
	// Warm up (catalog columnar conversions, plan buffer pools).
	if err := run(); err != nil {
		return 0, 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	iters := 0
	start := time.Now()
	for iters < minIters || time.Since(start) < minDur {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		if err := run(); err != nil {
			return 0, 0, 0, err
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(iters)
	bytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)
	return nsPerOp, allocsPerOp, bytesPerOp, nil
}

// runEngineBench is experiment "engine": render benchmarks for the row
// reference and the compiled plan on the five example scenarios. With
// check=false the report is written to outPath; with check=true outPath is
// instead read as the committed baseline and the run fails when the
// compiled path regressed more than 20% against it (the CI bench
// regression gate).
func runEngineBench(ctx context.Context, worlds int, outPath string, check bool) error {
	section(fmt.Sprintf("ENGINE: row vs compiled render path (%d worlds)", worlds))
	reg, err := benchfix.Registry()
	if err != nil {
		return err
	}
	// Gate runs measure longer: the -check thresholds must not flake on a
	// noisy shared CI runner, so each path gets more iterations and wall
	// clock than an informational run does.
	minIters, minDur := 20, 200*time.Millisecond
	if check {
		minIters, minDur = 50, 600*time.Millisecond
	}
	report := engineBenchReport{
		Benchmark: "engine-render",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Worlds:    worlds,
	}
	fmt.Printf("%-16s %12s %12s %8s %11s\n",
		"scenario", "row ns/op", "plan ns/op", "r/p", "plan allocs")
	for _, name := range sqlparser.ExampleScenarioNames() {
		src := sqlparser.ExampleScenarios()[name]
		scn, err := scenario.Compile(src, reg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if name == "serverfleet" {
			regions, err := benchfix.RegionsTable()
			if err != nil {
				return err
			}
			if err := scn.AddTable(regions); err != nil {
				return err
			}
		}
		sql, err := scn.GenerateSQL(scn.DefaultPoint())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		script, err := sqlparser.Parse(sql)
		if err != nil {
			return fmt.Errorf("%s: generated SQL does not parse: %w", name, err)
		}
		worldsTable, err := materializeWorlds(ctx, scn, worlds)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		mkEngine := func() *sqlengine.Engine {
			cat := sqlengine.NewCatalog()
			for _, t := range scn.StaticTables {
				cat.Put(t)
			}
			cat.PutColumns(worldsTable)
			return sqlengine.New(cat)
		}
		rowEngine := mkEngine()
		rowNs, _, _, err := timeEngine(ctx, func() error {
			_, err := rowEngine.ExecScriptRow(script, nil)
			return err
		}, minIters, minDur)
		if err != nil {
			return fmt.Errorf("%s (row): %w", name, err)
		}
		// The compiled path executes the same generated TSQL via a plan
		// compiled once — the scenario render loop's configuration.
		plan := sqlengine.CompileScript(script)
		planEngine := mkEngine()
		planNs, planAllocs, planBytes, err := timeEngine(ctx, func() error {
			res, err := plan.Exec(planEngine, nil)
			if err != nil {
				return err
			}
			res.Release()
			return nil
		}, minIters, minDur)
		if err != nil {
			return fmt.Errorf("%s (compiled): %w", name, err)
		}
		r := engineBenchResult{
			Scenario:            name,
			Worlds:              worlds,
			RowNsPerOp:          rowNs,
			CompiledNsPerOp:     planNs,
			Speedup:             rowNs / planNs,
			CompiledAllocsPerOp: planAllocs,
			CompiledBytesPerOp:  planBytes,
		}
		report.Results = append(report.Results, r)
		fmt.Printf("%-16s %12.0f %12.0f %7.1fx %11.1f\n", name, rowNs, planNs, r.Speedup, planAllocs)
	}
	if check {
		return checkEngineBaseline(outPath, &report)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", outPath)
	return nil
}

// checkEngineBaseline compares a fresh run against the committed baseline.
// The gate compares the MACHINE-NORMALIZED ratio — the compiled plan's
// speedup over the row executor measured in the same process — so a slower
// CI runner does not trip it; only a real relative regression of the
// compiled path (>20%) does.
func checkEngineBaseline(baselinePath string, current *engineBenchReport) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench check: reading baseline: %w", err)
	}
	var baseline engineBenchReport
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("bench check: parsing baseline %s: %w", baselinePath, err)
	}
	base := map[string]engineBenchResult{}
	for _, r := range baseline.Results {
		base[r.Scenario] = r
	}
	const tolerance = 0.8 // fail below 80% of the baseline ratio
	fmt.Printf("\nregression gate vs %s (fail below %.0f%% of baseline):\n", baselinePath, tolerance*100)
	failed := false
	for _, cur := range current.Results {
		b, ok := base[cur.Scenario]
		if !ok || b.RowNsPerOp == 0 || b.CompiledNsPerOp == 0 {
			fmt.Printf("  %-16s no baseline entry, skipped\n", cur.Scenario)
			continue
		}
		floor := (b.RowNsPerOp / b.CompiledNsPerOp) * tolerance
		status := "ok"
		if cur.Speedup < floor {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("  %-16s row/compiled %8.1fx (floor %8.1fx)  %s\n", cur.Scenario, cur.Speedup, floor, status)
	}
	if failed {
		return fmt.Errorf("bench check: render path regressed >20%% against %s", baselinePath)
	}
	fmt.Println("bench check: no regression")
	return nil
}
