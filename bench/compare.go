package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is the comparator's judgement of one (metric, workload) pair.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved" // run-to-run spread wider than the bound: not shown unchanged
)

// judge compares a metric's runs on the candidate with those on the
// baseline. worse is the share of the baseline's median by which the
// candidate's median is worse (negative: better).
func judge(d metricDef, base, cand []float64) (v verdict, worse, spread float64) {
	b, c := median(base), median(cand)
	if d.Name == "failed_share" { // absolute bound of zero
		if c > b {
			return regressed, c - b, 0
		}
		return ok, c - b, 0
	}
	worse = (c - b) / b
	if d.Better == "higher" {
		worse = -worse
	}
	spread = math.Max(quartileSpread(base), quartileSpread(cand))
	switch {
	case worse > d.Bound:
		return regressed, worse, spread
	case spread > d.Bound && d.Name != "setup_s":
		// setup_s is three process start-ups per run: its spread is shown
		// but only its median is judged, as by the driver that reads
		// BENCHMARK.json.
		return unresolved, worse, spread
	}
	return ok, worse, spread
}

// compare prints one row per (end-to-end metric, workload) pair that both
// files measured and reports whether any regressed.
func compare(w io.Writer, base, cand *resultFile) (anyRegressed bool) {
	fmt.Fprintf(w, "%-22s %-22s %12s %12s %9s %8s %7s  %s\n",
		"workload", "metric", "baseline", "candidate", "worse", "spread", "bound", "verdict")
	for _, spec := range workloads {
		bw, cw := base.Workloads[spec.name], cand.Workloads[spec.name]
		if bw == nil || cw == nil {
			continue
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), endToEndExtra...) {
			bm, cm := bw.EndToEnd[d.Name], cw.EndToEnd[d.Name]
			if bm == nil || cm == nil || len(bm.values()) == 0 || len(cm.values()) == 0 {
				continue // e.g. latency_p99_ms below 1 000 ops
			}
			v, worse, spread := judge(d, bm.values(), cm.values())
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(w, "%-22s %-22s %12s %12s %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				spec.name, d.Name, formatValue(float64(bm.Median)), formatValue(float64(cm.Median)),
				100*worse, 100*spread, 100*d.Bound, v)
		}
	}
	return anyRegressed
}
