package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlparser"
)

// The shard experiment: in-process sharded world evaluation on a large
// render. One parameter point of the capacityplanning scenario is
// evaluated at shardWorlds Monte Carlo worlds with 1, 2, 4 and 8 shards
// (the coordinator simulates the site vectors once and the ranges slice
// them, so VG parallelism is set to the shard count: n shards means n
// cores for simulation and n for plan execution), recording wall time and
// speedup over the single-shard run and asserting the stitched outputs
// stay bit-identical.
// Results are written as JSON (BENCH_shard.json) for CI artifact upload
// alongside the engine benchmark.

// shardBenchResult is one shard count's measurement.
type shardBenchResult struct {
	Shards  int     `json:"shards"`
	NsPerOp float64 `json:"ns_per_op"`
	// Speedup is single-shard ns / this ns.
	Speedup float64 `json:"speedup"`
	// Identical reports the stitched outputs matched the single-shard
	// render bit for bit.
	Identical bool `json:"identical"`
}

// shardBenchReport is the BENCH_shard.json schema.
type shardBenchReport struct {
	Benchmark string             `json:"benchmark"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	CPUs      int                `json:"cpus"`
	Scenario  string             `json:"scenario"`
	Worlds    int                `json:"worlds"`
	Results   []shardBenchResult `json:"results"`
	// SpeedupAt8 repeats the 8-shard speedup, the ROADMAP acceptance
	// number.
	SpeedupAt8 float64 `json:"speedup_at_8"`
}

// runShardBench is experiment "shard".
func runShardBench(ctx context.Context, worlds int, outPath string) error {
	section(fmt.Sprintf("SHARD: in-process sharded world evaluation (%d worlds, capacityplanning)", worlds))
	reg, err := benchfix.Registry()
	if err != nil {
		return err
	}
	scn, err := scenario.Compile(sqlparser.ExampleScenarios()["capacityplanning"], reg)
	if err != nil {
		return err
	}
	pt := scn.DefaultPoint()
	report := shardBenchReport{
		Benchmark: "shard-scaling",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Scenario:  "capacityplanning",
		Worlds:    worlds,
	}

	// measure runs one shard configuration (min of iters timings) and
	// returns the render for the identity check.
	measure := func(shards, iters int) (float64, *mc.PointResult, error) {
		ev := mc.NewEvaluator(scn, mc.Options{Worlds: worlds, Workers: shards, Shards: shards})
		var best float64 = math.Inf(1)
		var res *mc.PointResult
		for i := 0; i < iters; i++ {
			if err := ctx.Err(); err != nil {
				return 0, nil, err
			}
			start := time.Now()
			r, err := ev.EvaluatePoint(ctx, pt)
			if err != nil {
				return 0, nil, err
			}
			if ns := float64(time.Since(start).Nanoseconds()); ns < best {
				best = ns
			}
			res = r
		}
		return best, res, nil
	}

	if report.CPUs < 2 {
		fmt.Printf("note: %d CPU(s) available — shard scaling needs cores; expect ~1x speedups here\n", report.CPUs)
	}
	fmt.Printf("%-8s %14s %10s %10s\n", "shards", "ns/op", "speedup", "identical")
	var baseNs float64
	var baseRes *mc.PointResult
	for _, shards := range []int{1, 2, 4, 8} {
		ns, res, err := measure(shards, 3)
		if err != nil {
			return err
		}
		identical := true
		if shards == 1 {
			baseNs, baseRes = ns, res
		} else {
			identical = sameColumns(baseRes, res)
		}
		r := shardBenchResult{
			Shards:    shards,
			NsPerOp:   ns,
			Speedup:   baseNs / ns,
			Identical: identical,
		}
		report.Results = append(report.Results, r)
		fmt.Printf("%-8d %14.0f %9.2fx %10v\n", shards, ns, r.Speedup, identical)
		if !identical {
			return fmt.Errorf("shard bench: %d-shard render is not bit-identical to the one-range render", shards)
		}
		if shards == 8 {
			report.SpeedupAt8 = r.Speedup
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (speedup at 8 shards: %.2fx)\n", outPath, report.SpeedupAt8)
	return nil
}

// sameColumns reports bitwise equality of two renders' output vectors.
func sameColumns(a, b *mc.PointResult) bool {
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	for col, av := range a.Columns {
		bv, ok := b.Columns[col]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] && !(math.IsNaN(av[i]) && math.IsNaN(bv[i])) {
				return false
			}
		}
	}
	// The point's aggregates must agree with a direct fold on the moments.
	for col, cs := range b.Sketches {
		direct := aggregate.NewColumnStats()
		direct.AddAll(a.Columns[col])
		if cs.Count() != direct.Count() {
			return false
		}
		if math.Abs(cs.Expect()-direct.Expect()) > 1e-9*math.Max(1, math.Abs(direct.Expect())) {
			return false
		}
	}
	return true
}
