// Command fpbench regenerates every figure and measurable claim of the
// Fuzzy Prophet paper (SIGMOD 2011 demonstration). See DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// outcomes.
//
//	fpbench -exp all            # run everything
//	fpbench -exp fig3 -worlds 400
//
// Experiments:
//
//	fig2   Figure 2: the example scenario parses verbatim and compiles
//	fig3   Figure 3: the online interface graph (per-week series + chart)
//	fig4   Figure 4: 2-D slice of fingerprint mappings for the Capacity model
//	e1     §3.2: time to first accurate statistics, cold vs warm session
//	e2     §3.2: fraction of the graph recomputed after slider adjustments
//	e3     §3.3: offline sweep, naive vs fingerprint (invocations, time, optimum)
//	e4     ablation: fingerprint length k vs reuse rate and estimate error
//	e5     ablation: Markovian non-Markovian estimators on the capacity chain
//	engine row vs vectorized SQL engine on the five example scenarios'
//	       1000-world render path; writes BENCH_engine.json (see -engineworlds, -out)
//	storage hot-hit vs mapped spill-tier hit vs re-simulate basis access,
//	       plus demotion/promotion throughput; writes BENCH_storage.json
//	trace  render tracing overhead: untraced vs traced render, and the
//	       disabled-path span ops (with -check: must be 0 allocs/op and
//	       under 2% of an untraced render)
//	wire   shard wire full vs slim: bytes per shard exchange for
//	       full-payload vs fingerprint-only requests and per-world vs
//	       sketch-only responses; writes BENCH_wire.json and asserts the
//	       sketch-only response shrink exceeds 10x at -wireworlds worlds
//	resilience hedged vs unhedged evaluate tails with a straggling worker,
//	       hedge win rate, and the load-shed rate under a concurrency cap;
//	       writes BENCH_resilience.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"fuzzyprophet/internal/buildinfo"
	"fuzzyprophet/internal/cli"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment: fig2|fig3|fig4|e1|e2|e3|e4|e5|engine|shard|storage|trace|wire|resilience|all")
		worlds       = flag.Int("worlds", 300, "Monte Carlo worlds per point")
		step         = flag.Int("step", 8, "purchase-date grid step for sweep experiments")
		engineWorlds = flag.Int("engineworlds", 1000, "worlds for the engine render benchmark")
		benchOut     = flag.String("out", "BENCH_engine.json", "output path for the engine benchmark JSON (with -check: the baseline to compare against)")
		benchCheck   = flag.Bool("check", false, "engine experiment only: compare against the committed baseline instead of writing; exit non-zero on >20% regression")
		shardWorlds  = flag.Int("shardworlds", 100000, "worlds for the shard-scaling benchmark")
		shardOut     = flag.String("shardout", "BENCH_shard.json", "output path for the shard benchmark JSON")
		storageOut   = flag.String("storageout", "BENCH_storage.json", "output path for the storage benchmark JSON")
		wireWorlds   = flag.Int("wireworlds", 100000, "worlds for the wire-protocol benchmark")
		wireOut      = flag.String("wireout", "BENCH_wire.json", "output path for the wire-protocol benchmark JSON")
		resilOut     = flag.String("resilienceout", "BENCH_resilience.json", "output path for the resilience benchmark JSON")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("fpbench"))
		return
	}

	// Ctrl-C cancels the context; the simulation loops check it per
	// world-batch, so even the big sweep experiments abort in milliseconds.
	ctx, stop := cli.SignalContext()
	defer stop()

	runs := map[string]func(context.Context, int, int) error{
		"fig2": func(ctx context.Context, w, s int) error { return runFig2() },
		"fig3": func(ctx context.Context, w, s int) error { return runFig3(ctx, w) },
		"fig4": func(ctx context.Context, w, s int) error { return runFig4(ctx, w, s) },
		"e1":   func(ctx context.Context, w, s int) error { return runE1(ctx, w) },
		"e2":   func(ctx context.Context, w, s int) error { return runE2(ctx, w) },
		"e3":   func(ctx context.Context, w, s int) error { return runE3(ctx, w, s) },
		"e4":   func(ctx context.Context, w, s int) error { return runE4(ctx, w) },
		"e5":   func(ctx context.Context, w, s int) error { return runE5() },
		"engine": func(ctx context.Context, w, s int) error {
			return runEngineBench(ctx, *engineWorlds, *benchOut, *benchCheck)
		},
		"shard": func(ctx context.Context, w, s int) error {
			return runShardBench(ctx, *shardWorlds, *shardOut)
		},
		"storage": func(ctx context.Context, w, s int) error {
			return runStorageBench(ctx, w, *storageOut)
		},
		"trace": func(ctx context.Context, w, s int) error {
			return runTraceBench(ctx, *engineWorlds, *benchCheck)
		},
		"wire": func(ctx context.Context, w, s int) error {
			return runWireBench(ctx, *wireWorlds, *wireOut)
		},
		"resilience": func(ctx context.Context, w, s int) error {
			return runResilienceBench(ctx, *resilOut)
		},
	}
	order := []string{"fig2", "fig3", "fig4", "e1", "e2", "e3", "e4", "e5", "engine", "shard", "storage", "trace", "wire", "resilience"}

	selected := strings.Split(*exp, ",")
	if *exp == "all" {
		selected = order
	}
	for _, name := range selected {
		fn, ok := runs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "fpbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		if err := fn(ctx, *worlds, *step); err != nil {
			if cli.ExitCode(err) == 130 {
				fmt.Fprintf(os.Stderr, "\nfpbench: %s cancelled\n", name)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "fpbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func section(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}
