//go:build fpbench_probe

// Command layerprobe times each layer's exported entry points by calling
// them directly, at the sizes the benchmark's workloads use (400 worlds,
// 32-probe fingerprints, the two example scenarios), and prints one JSON
// object: metric name to value. bench/ builds and runs it after a traced
// run.
//
// It is the one part of the benchmark that imports internal packages, so
// it is a main of its own behind a build tag: when a later change to an
// internal API stops it compiling, `go build ./...` is unaffected, the
// harness reports these metrics as missing, and every end-to-end number is
// measured as before.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/bench/scenarios"
	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

const worlds = 400

func main() {
	out, err := probe(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerprobe:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "layerprobe:", err)
		os.Exit(1)
	}
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink any

// timeOp returns the time one call of f takes, in nanoseconds: the median
// over five batches, each at least 20 ms and 3 calls long, after one
// warm-up call.
func timeOp(f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	var batches []float64
	for range 5 {
		n := 0
		start := time.Now()
		for n < 3 || time.Since(start) < 20*time.Millisecond {
			if err := f(); err != nil {
				return 0, err
			}
			n++
		}
		batches = append(batches, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	sort.Float64s(batches)
	return batches[len(batches)/2], nil
}

func probe(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	// set records one timing, converted from nanoseconds by div. After the
	// first failure it does nothing; failed is checked once, at the end.
	var failed error
	set := func(name string, div float64, f func() error) {
		if failed != nil {
			return
		}
		ns, err := timeOp(f)
		if err != nil {
			failed = fmt.Errorf("%s: %w", name, err)
			return
		}
		out[name] = ns / div
	}

	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		return nil, err
	}
	set("scenario.compile_us", 1e3, func() error {
		scn, err := sys.Compile(scenarios.CapacityPlanning)
		sink = scn
		return err
	})

	set("rng.derive_ns", 1, func() error {
		sink = rng.Derive(mc.DefaultSeedBase, "world.CapacityModel#0", 17)
		return nil
	})

	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		return nil, err
	}
	if err := models.RegisterDefaults(reg); err != nil {
		return nil, err
	}
	capacity, err := compile(scenarios.CapacityPlanning, reg, nil)
	if err != nil {
		return nil, err
	}
	regions, err := regionsTable()
	if err != nil {
		return nil, err
	}
	fleet, err := compile(scenarios.ServerFleet, reg, regions)
	if err != nil {
		return nil, err
	}

	// One VG call per (site, world): what simulate does 21 200 times in a
	// cold 400-world render.
	pt := capacity.DefaultPoint()
	for si := range capacity.Sites {
		site := &capacity.Sites[si]
		args, _, err := site.ArgValues(pt)
		if err != nil {
			return nil, err
		}
		world := 0
		invoke := func() error {
			world++
			v, err := reg.Invoke(site.Name, mc.WorldSeed(mc.DefaultSeedBase, site.ID, world), args)
			sink = v
			return err
		}
		set("vg.invoke_ns."+site.Name, 1, invoke)
		if site.Name == "CapacityModel" {
			const calls = 2000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range calls {
				if err := invoke(); err != nil {
					return nil, err
				}
			}
			runtime.ReadMemStats(&after)
			out["vg.allocs_per_invoke.CapacityModel"] = float64(after.Mallocs-before.Mallocs) / calls
		}
	}

	// Fingerprint matching as slider_first_visit meets it: 64 stored bases
	// of k=32 probes, the target an affine image of the last one scanned.
	cfg := core.DefaultConfig()
	index, err := core.NewIndex(cfg)
	if err != nil {
		return nil, err
	}
	src := rng.New(1)
	var last core.Fingerprint
	for i := range 64 {
		last = core.Fingerprint{Outputs: make([]float64, cfg.Length)}
		for j := range last.Outputs {
			last.Outputs[j] = src.Normal(float64(100*i), 10)
		}
		index.Put("site", fmt.Sprint(i), last)
	}
	target := core.Fingerprint{Outputs: make([]float64, cfg.Length)}
	for j, x := range last.Outputs {
		target.Outputs[j] = 1.5*x + 7
	}
	var match core.MatchResult
	set("core.find_mapping_us", 1e3, func() error {
		var ok bool
		if match, ok = index.FindMapping("site", target); !ok {
			return fmt.Errorf("no mapping found")
		}
		return nil
	})
	vector := make([]float64, worlds)
	for i := range vector {
		vector[i] = src.Normal(40000, 1500)
	}
	set("core.apply_us", 1e3, func() error {
		mapped, err := match.Mapping.Apply(vector)
		sink = mapped
		return err
	})

	// The basis store, RAM tier, with a working set like slider_revisit's.
	store := storage.NewStore(0)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("(%d,16,32)", i)
		store.Put("CapacityModel#0", keys[i], vector)
	}
	i := 0
	set("storage.get_ns", 1, func() error {
		i++
		v, ok := store.Get("CapacityModel#0", keys[i%len(keys)])
		sink = v
		if !ok {
			return fmt.Errorf("stored vector not found")
		}
		return nil
	})
	set("storage.put_us", 1e3, func() error {
		i++
		store.Put("CapacityModel#0", keys[i%len(keys)], vector)
		return nil
	})

	// The compiled plan over a materialized 400-world table, as the
	// plan-execute stage of one point runs it.
	for _, s := range []struct {
		name string
		scn  *scenario.Scenario
	}{{"capacityplanning", capacity}, {"serverfleet", fleet}} {
		engine, err := engineWithWorlds(s.scn, reg)
		if err != nil {
			return nil, err
		}
		pt := s.scn.DefaultPoint()
		set("sqlengine.plan_exec_us."+s.name, 1e3, func() error {
			res, err := s.scn.Plan().ExecCounted(engine, pt, nil)
			if err != nil {
				return err
			}
			res.Release()
			return nil
		})
	}

	// Folding one output column into moments and a quantile sketch.
	// Nanoseconds per value are microseconds per thousand values.
	set("aggregate.column_stats_us_per_kvalue", worlds, func() error {
		cs := aggregate.NewColumnStats()
		cs.AddAll(vector)
		sink = cs.Expect() + cs.StdDev() + cs.CI95()
		return nil
	})

	// Encoding one 53-point, 3-series graph the way the server answers.
	scn, err := sys.Compile(scenarios.CapacityPlanning)
	if err != nil {
		return nil, err
	}
	session, err := scn.OpenSession(fp.WithWorlds(32))
	if err != nil {
		return nil, err
	}
	graph, err := session.Render(ctx)
	if err != nil {
		return nil, err
	}
	set("viz.graph_json_us", 1e3, func() error {
		data, err := json.MarshalIndent(map[string]any{"graph": graph, "reuse_counts": session.ReuseCounts()}, "", "  ")
		sink = data
		return err
	})

	// The offline library path no server route reaches: Scenario.Optimize
	// over capacityplanning on a coarser purchase grid, 100 worlds.
	coarse, err := sys.Compile(strings.ReplaceAll(scenarios.CapacityPlanning, "STEP BY 8", "STEP BY 24"))
	if err != nil {
		return nil, err
	}
	var rates []float64
	for range 3 {
		res, err := coarse.Optimize(ctx, nil, fp.WithWorlds(100))
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(res.PointsEvaluated)/res.Elapsed.Seconds())
	}
	sort.Float64s(rates)
	out["optimize.sweep_points_per_s"] = rates[1]
	return out, failed
}

func compile(src string, reg *vg.Registry, table *sqlengine.Table) (*scenario.Scenario, error) {
	scn, err := scenario.Compile(src, reg)
	if err != nil {
		return nil, err
	}
	if table != nil {
		if err := scn.AddTable(table); err != nil {
			return nil, err
		}
	}
	return scn, nil
}

func regionsTable() (*sqlengine.Table, error) {
	rows := make([][]value.Value, len(scenarios.RegionsRows))
	for i, row := range scenarios.RegionsRows {
		for _, cell := range row {
			switch c := cell.(type) {
			case string:
				rows[i] = append(rows[i], value.Str(c))
			case float64:
				rows[i] = append(rows[i], value.Float(c))
			default:
				return nil, fmt.Errorf("regions table: unsupported cell %v", cell)
			}
		}
	}
	return sqlengine.NewTable("regions", scenarios.RegionsColumns, rows)
}

// engineWithWorlds simulates every VG call site of scn at its default
// point and installs the possible-worlds table the plan executes over.
func engineWithWorlds(scn *scenario.Scenario, reg *vg.Registry) (*sqlengine.Engine, error) {
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
		for i := range samples {
			v, err := reg.Invoke(site.Name, mc.WorldSeed(mc.DefaultSeedBase, site.ID, i), args)
			if err != nil {
				return nil, err
			}
			if samples[i], err = v.AsFloat(); err != nil {
				return nil, err
			}
		}
		cols = append(cols, site.Column)
		columns = append(columns, sqlengine.FloatColumn(samples))
	}
	table, err := sqlengine.NewColTable(scenario.WorldsTable, cols, columns)
	if err != nil {
		return nil, err
	}
	cat := sqlengine.NewCatalog()
	for _, t := range scn.StaticTables {
		cat.Put(t)
	}
	cat.PutColumns(table)
	return sqlengine.New(cat), nil
}
