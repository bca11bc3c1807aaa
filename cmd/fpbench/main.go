// Command fpbench regenerates the demonstration claims of the Fuzzy Prophet
// paper (SIGMOD 2011): Figures 2–4, the §3.2 online re-render and the §3.3
// offline sweep, plus two ablations. The experiment list below is the
// index; README "fpbench" shows how to run it. Performance is judged by
// bench/ (bash bench/run.sh), not here.
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
//	e5     ablation: Markovian analysis (skippable regions) of the capacity chain
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
		exp     = flag.String("exp", "all", "experiment: fig2|fig3|fig4|e1|e2|e3|e4|e5|all")
		worlds  = flag.Int("worlds", 300, "Monte Carlo worlds per point")
		step    = flag.Int("step", 8, "purchase-date grid step for sweep experiments")
		version = flag.Bool("version", false, "print version and exit")
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
	}
	order := []string{"fig2", "fig3", "fig4", "e1", "e2", "e3", "e4", "e5"}

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
