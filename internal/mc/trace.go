package mc

// Stage-span helpers for render tracing. Every helper is a no-op when the
// span is nil, so the untraced hot path pays a nil check and nothing else;
// the store's spill counters are read only on traced runs over a store
// with a spill tier.

import (
	"time"

	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/storage"
)

// outcomeKeys are the simulate span's per-reuse-kind attribute keys,
// indexed by ReuseKind.
var outcomeKeys = [...]string{
	Computed:    "sites_computed",
	CachedExact: "sites_cached",
	Identity:    "sites_identity",
	Affine:      "sites_affine",
}

// recordOutcomes attaches per-reuse-kind site counts to a simulate span.
func recordOutcomes(sp *obs.Span, outcomes map[string]ReuseKind) {
	if sp == nil {
		return
	}
	var counts [len(outcomeKeys)]int64
	for _, k := range outcomes {
		if int(k) < len(counts) {
			counts[k]++
		}
	}
	for k, n := range counts {
		if n > 0 {
			sp.SetInt(outcomeKeys[k], n)
		}
	}
}

// noteSpillDeltas reports spill-tier work that happened between two reads
// of the store's spill counters as synthetic completed child spans,
// attributing demotion (eviction writes) and promotion (mapped fault-backs)
// time to the stage that triggered it.
func noteSpillDeltas(sp *obs.Span, before, after storage.SpillCounters) {
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
