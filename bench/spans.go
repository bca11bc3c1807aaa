package main

import (
	"sort"
	"strings"
)

// node is one span: the JSON form fpserver returns under ?trace=1 and the
// form the benchmark's own spans take, so one tree covers an op from the
// client's first byte to the last response decoded. Times are microseconds
// from the start of the op.
type node struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*node        `json:"children,omitempty"`
}

func (n *node) end() int64 { return n.StartUS + n.DurUS }

// shift moves a whole subtree in time.
func (n *node) shift(d int64) {
	n.StartUS += d
	for _, c := range n.Children {
		c.shift(d)
	}
}

// placeInside puts a subtree that was timed on another clock (the server's
// span tree inside the client's HTTP span, a worker's inside the
// coordinator's shard span) in the middle of parent: the two clocks are
// not reconciled, and the time left over on either side is the parent's.
func placeInside(parent, sub *node) {
	sub.shift(parent.StartUS + max(parent.DurUS-sub.DurUS, 0)/2 - sub.StartUS)
}

// rebaseGrafts places every grafted worker-shard subtree inside the shard
// span that carries it. fpserver leaves those at offset 0 of their own clock.
func rebaseGrafts(n *node) {
	for _, c := range n.Children {
		if c.Name == "worker-shard" {
			placeInside(n, c)
		}
		rebaseGrafts(c)
	}
}

// The rows a span's self time is added to, by span name.
var spanRows = map[string]string{
	"op":                 "server.http_overhead_ms_per_op",
	"http":               "server.http_overhead_ms_per_op",
	"render":             "online.render_self_ms_per_op",
	"evaluate":           "online.render_self_ms_per_op",
	"point":              "mc.point_self_ms_per_op",
	"simulate":           "mc.simulate_ms_per_op",
	"worlds-materialize": "mc.materialize_ms_per_op",
	"plan-execute":       "sqlengine.plan_execute_ms_per_op",
	"op:bind":            "sqlengine.op_bind_ms_per_op",
	"op:project":         "sqlengine.op_project_ms_per_op",
	"spill-promote":      "storage.spill_promote_ms_per_op",
	"spill-demote":       "storage.spill_demote_ms_per_op",
	"shard-fanout":       "server.shard.fanout_ms_per_op",
	"shard":              "server.shard.wire_ms_per_op",
	"worker-shard":       "server.shard.worker_ms_per_op",
	"sketch-merge":       "aggregate.sketch_merge_ms_per_op",
}

// unattributedRow collects the self time of spans whose name is not listed
// above: nothing today, and whatever a later change renames or adds. While
// it stays small the other rows can be trusted.
const unattributedRow = "bench.unattributed_ms_per_op"

// rowFor names the row of a span. A worker's own sub-shard spans are called
// "shard" like the coordinator's; under a worker-shard they are the
// worker's time, not wire time.
func rowFor(name string, inWorker bool) string {
	if strings.HasPrefix(name, "http ") {
		name = "http"
	}
	if name == "shard" && inWorker {
		return spanRows["worker-shard"]
	}
	if row, ok := spanRows[name]; ok {
		return row
	}
	return unattributedRow
}

// attribute splits the op's time among rows. Every microsecond of the root
// span goes to exactly one span: the deepest one covering it and, where
// sibling spans overlap (parallel shards, or notes recorded after the
// fact), the one that started last. A span's share is therefore its self
// time — its duration minus what its children cover — and the shares of a
// tree always sum to the root's duration, whether or not spans ran in
// parallel. Shares are added to rows (microseconds).
func attribute(root *node, rows map[string]float64) {
	attributeSpan(root, root.StartUS, root.end(), false, rows)
}

func attributeSpan(n *node, lo, hi int64, inWorker bool, rows map[string]float64) {
	lo, hi = max(lo, n.StartUS), min(hi, n.end())
	if hi <= lo {
		return
	}
	row := rowFor(n.Name, inWorker)
	inWorker = inWorker || n.Name == "worker-shard"

	// Cut [lo, hi) at every child boundary; within a piece the set of
	// covering children is constant.
	cuts := []int64{lo, hi}
	for _, c := range n.Children {
		for _, t := range [2]int64{c.StartUS, c.end()} {
			if t > lo && t < hi {
				cuts = append(cuts, t)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		var owner *node
		for _, c := range n.Children {
			if c.StartUS <= a && c.end() >= b && (owner == nil || c.StartUS >= owner.StartUS) {
				owner = c
			}
		}
		if owner == nil {
			rows[row] += float64(b - a)
		} else {
			attributeSpan(owner, a, b, inWorker, rows)
		}
	}
}

// sumAttr adds up a numeric attribute over every span called name.
func sumAttr(n *node, name, attr string) float64 {
	total := 0.0
	if n.Name == name {
		if v, ok := n.Attrs[attr].(float64); ok {
			total += v
		}
	}
	for _, c := range n.Children {
		total += sumAttr(c, name, attr)
	}
	return total
}
