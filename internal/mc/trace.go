package mc

// Stage-span helpers for render tracing. Every helper is a no-op when the
// span is nil, so the untraced hot path pays a nil check and nothing else;
// snapshotting store stats (which takes the store lock) happens only on
// traced runs.

import (
	"time"

	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/storage"
)

// recordOutcomes attaches per-reuse-kind site counts to a simulate span.
func recordOutcomes(sp *obs.Span, outcomes map[string]ReuseKind) {
	if sp == nil {
		return
	}
	var counts [4]int64
	for _, k := range outcomes {
		if int(k) < len(counts) {
			counts[k]++
		}
	}
	for k, n := range counts {
		if n > 0 {
			sp.SetInt("sites_"+ReuseKind(k).String(), n)
		}
	}
}

// noteSpillDeltas reports spill-tier work that happened between two store
// stat snapshots as synthetic completed child spans, attributing demotion
// (eviction writes) and promotion (mapped fault-backs) time to the stage
// that triggered it.
func noteSpillDeltas(sp *obs.Span, before, after storage.Stats) {
	if sp == nil {
		return
	}
	if d := after.Demoted - before.Demoted; d > 0 {
		c := sp.Note("spill-demote", time.Duration(after.DemoteNanos-before.DemoteNanos))
		c.SetInt("count", d)
	}
	if p := after.Promoted - before.Promoted; p > 0 {
		c := sp.Note("spill-promote", time.Duration(after.PromoteNanos-before.PromoteNanos))
		c.SetInt("count", p)
	}
}

// recordExecCounters turns one plan execution's operator counters into
// attributes and per-operator child spans of the plan-execute span.
func recordExecCounters(sp *obs.Span, c *sqlengine.ExecCounters) {
	if sp == nil || c == nil {
		return
	}
	sp.SetInt("rows_in", c.RowsIn)
	sp.SetInt("rows_out", c.RowsOut)
	bind := sp.Note("op:bind", time.Duration(c.BindNS))
	bind.SetInt("rows_out", c.RowsIn)
	if c.JoinKind != "" {
		bind.SetStr("join", c.JoinKind)
		bind.SetInt("build_rows", c.BuildRows)
		bind.SetInt("probe_rows", c.ProbeRows)
	}
	if c.WhereIn > 0 {
		w := sp.Note("op:where", time.Duration(c.WhereNS))
		w.SetInt("rows_in", c.WhereIn)
		w.SetInt("rows_out", c.WhereOut)
	}
	eval := sp.Note("op:project", time.Duration(c.EvalNS))
	eval.SetInt("rows_out", c.RowsOut)
	if c.Grouped {
		eval.SetInt("grouped", 1)
	}
}
