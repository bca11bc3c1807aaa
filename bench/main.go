// Command bench is this repository's end-to-end benchmark: it builds
// cmd/fpserver from the tree, runs it as child processes on loopback, and
// drives six named workloads over the public HTTP API from one closed-loop
// client, checking every answer. See README.md in this directory.
//
//	bash bench/run.sh                         all workloads, untraced + traced runs, layer probes
//	bash bench/run.sh -workload join_revisit -runs 3 -out a.json
//	bash bench/run.sh -check a.json b.json    judge b against a with the benchmark's bounds
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	                                          one run, one JSON line (BENCHMARK.json's contract)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workload names (default: all six)")
		seed         = flag.Uint64("seed", 1, "seed the workloads' inputs are generated from")
		seconds      = flag.Float64("seconds", 10, "measured seconds per run (the traced run of a full run takes half)")
		trace        = flag.String("trace", "", "0 or 1: make one run of one workload and print one JSON line of end-to-end (0) or per-layer (1) metrics")
		runs         = flag.Int("runs", 1, "repeat the full run this many times; results hold every run and the median")
		out          = flag.String("out", "", "result file (default bench/out/result.json)")
		check        = flag.Bool("check", false, "compare two result files: -check baseline.json candidate.json")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *check:
		err = runCheck(flag.Args())
	case *trace != "":
		err = runDriver(ctx, *workloadFlag, *seed, *seconds, *trace)
	default:
		err = runFull(ctx, *workloadFlag, *seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func selectWorkloads(list string) ([]*workloadSpec, error) {
	var out []*workloadSpec
	if list == "" {
		for i := range workloads {
			out = append(out, &workloads[i])
		}
		return out, nil
	}
	for _, name := range strings.Split(list, ",") {
		spec, ok := findWorkload(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, spec)
	}
	return out, nil
}

func runCheck(files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-check takes two result files: baseline.json candidate.json")
	}
	base, err := readResult(files[0])
	if err != nil {
		return err
	}
	cand, err := readResult(files[1])
	if err != nil {
		return err
	}
	if compare(os.Stdout, base, cand) {
		return fmt.Errorf("at least one metric regressed beyond its bound")
	}
	return nil
}

// prepare finds the checkout and builds the server from it.
func prepare(ctx context.Context) (checkout, env, error) {
	co, err := findCheckout()
	if err != nil {
		return checkout{}, env{}, err
	}
	e, err := co.buildServer(ctx)
	return co, e, err
}

// runFull is the benchmark as people run it: for every workload an
// untraced run for the end-to-end metrics and a shorter traced run for the
// per-layer ones, then the layer probes.
func runFull(ctx context.Context, list string, seed uint64, seconds float64, runs int, out string) error {
	specs, err := selectWorkloads(list)
	if err != nil {
		return err
	}
	co, e, err := prepare(ctx)
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(co.outDir(), "result.json")
	}
	file := &resultFile{
		Meta:      co.newMeta(ctx, seed, seconds, runs),
		Workloads: map[string]*workloadResult{},
		Probes:    map[string]*measured{},
	}
	for run := range runs {
		for _, spec := range specs {
			for _, traced := range []bool{false, true} {
				secs := seconds
				if traced {
					secs /= 2
				}
				logf("run %d/%d: %s (traced=%v, %gs)", run+1, runs, spec.name, traced, secs)
				res, err := runWorkload(ctx, e, spec, defaultSizes, seed, secs, traced)
				if err != nil {
					return err
				}
				file.absorb(spec, defaultSizes, res)
				if traced {
					if err := writeTrace(co, res); err != nil {
						return err
					}
				}
			}
		}
		probes, err := co.runProbes(ctx)
		if err != nil {
			logf("warning: layer probes unavailable, their metrics are null: %v", err)
		}
		record(file.Probes, probeLayer, probes)
	}
	file.print(os.Stdout)
	if err := writeJSON(out, file); err != nil {
		return err
	}
	logf("wrote %s", out)
	for _, w := range file.Workloads {
		if !w.Correct {
			return fmt.Errorf("answers were wrong or ops failed; see the failures above")
		}
	}
	return nil
}

// writeTrace writes the span trees a traced run kept in memory.
func writeTrace(co checkout, res *runResult) error {
	return writeJSON(filepath.Join(co.outDir(), "trace-"+res.Workload+".json"), map[string]any{
		"workload": res.Workload,
		"note":     "span trees of the first traced ops; times in microseconds from the op's first request",
		"ops":      res.trees,
	})
}

// runDriver makes the one run BENCHMARK.json's command line asks for and
// prints the result as the last line of standard output.
func runDriver(ctx context.Context, name string, seed uint64, seconds float64, trace string) error {
	spec, found := findWorkload(name)
	if !found {
		return fmt.Errorf("-trace needs exactly one -workload; %q is not one", name)
	}
	if trace != "0" && trace != "1" {
		return fmt.Errorf("-trace is 0 or 1, not %q", trace)
	}
	traced := trace == "1"
	co, e, err := prepare(ctx)
	if err != nil {
		return err
	}
	res, err := runWorkload(ctx, e, spec, defaultSizes, seed, seconds, traced)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		if err := writeTrace(co, res); err != nil {
			return err
		}
		probes, err := co.runProbes(ctx)
		if err != nil {
			logf("warning: layer probes unavailable: %v", err)
		}
		for k, v := range probes {
			res.Metrics[k] = v
		}
	}
	for _, msg := range res.Failures {
		logf("failure: %s", msg)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// The line must hold a number for every metric; result.json
			// written by a full run says null instead.
			logf("warning: %s could not be measured, reported as 0", d.Name)
			v = 0
		}
		line.Metrics[d.Name] = value{v, d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
