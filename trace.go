package fuzzyprophet

// Render tracing: the public face of internal/obs. A RenderTrace is
// attached to the context passed into Render/Evaluate calls; the Monte
// Carlo executor, the compiled-plan engine and the shard coordinator hang
// stage spans off it. Spans are carved from chunks the trace owns, so
// recording costs an allocation per chunk of spans, not per span; the
// tree is built only when Tree or Format is called. With no trace on the
// context the instrumented paths are nil no-ops (0 allocs — asserted by
// obs.TestNilDisabledPath). fpserver, by contrast, records every render
// and builds a tree only for ?trace=1 or a slow render.
//
//	rt := fp.NewRenderTrace()
//	g, err := session.Render(fp.WithTrace(ctx, rt))
//	rt.End()
//	fmt.Print(rt.Format())   // aligned stage/operator breakdown
//	tree := rt.Tree()        // structured span tree (JSON-marshalable)

import (
	"context"
	"time"

	"fuzzyprophet/internal/obs"
)

// TraceNode is one node of a snapshotted span tree: name, start offset and
// duration in microseconds, typed attributes, children. It marshals to the
// same JSON fpserver embeds under ?trace=1.
type TraceNode = obs.Node

// RenderTrace captures one render's span tree across every pipeline stage
// — and, for sharded renders, across worker processes (worker subtrees are
// stitched under the coordinator's shard spans). Safe for the concurrent
// goroutines of a single render; use one RenderTrace per render.
type RenderTrace struct {
	tr *obs.Trace
}

// NewRenderTrace returns an empty trace with a fresh render ID. The root
// span opens immediately; End closes it.
func NewRenderTrace() *RenderTrace {
	return &RenderTrace{tr: obs.New("render", obs.NewID())}
}

// ID returns the trace's render ID — the value fpserver logs and
// propagates to shard workers via the X-FP-Render-ID header.
func (rt *RenderTrace) ID() string {
	if rt == nil {
		return ""
	}
	return rt.tr.ID()
}

// End closes the root span. Tree and Format may be called before End (open
// spans report elapsed time) but totals are only final afterwards.
func (rt *RenderTrace) End() {
	if rt == nil {
		return
	}
	rt.tr.End()
}

// Duration reports the root span's duration (elapsed so far before End).
func (rt *RenderTrace) Duration() time.Duration {
	if rt == nil {
		return 0
	}
	return rt.tr.Duration()
}

// Tree snapshots the span tree. The returned tree is a copy: safe to
// marshal, inspect or retain after further render work.
func (rt *RenderTrace) Tree() *TraceNode {
	if rt == nil {
		return nil
	}
	return rt.tr.Tree()
}

// Format renders the trace as an aligned text tree: identically-named
// sibling spans merged with occurrence counts, durations, percentages of
// the render total, and summed numeric attributes. This is the breakdown
// `fuzzyprophet -explain` prints.
func (rt *RenderTrace) Format() string {
	if rt == nil {
		return ""
	}
	return obs.FormatTree(rt.tr.Tree())
}

// WithTrace returns a context that carries rt's root span; every render or
// evaluation under that context records its stages into rt. A nil rt
// returns ctx unchanged.
func WithTrace(ctx context.Context, rt *RenderTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return obs.With(ctx, rt.tr.Root())
}
