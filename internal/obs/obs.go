// Package obs is a zero-dependency, allocation-light span tracer for the
// render pipeline. A Trace owns its spans; every method on a nil *Trace or
// nil *Span is a no-op, so a library caller that attaches no trace runs the
// instrumented paths at zero allocations — callers never branch on "is
// tracing on", they just call through a possibly-nil span.
//
// Recording is cheap enough to leave on: spans are carved from
// fixed-capacity chunks the Trace owns and carry their first few attributes
// inline, so a steady-state span or attribute makes no heap allocation.
// Spans use the monotonic clock (time.Now's monotonic reading survives
// wall-clock steps). Walk reads the raw spans (name and duration) without
// building anything; Tree builds the JSON Node tree on demand, for a reader
// who asked for it (Export marks such a trace). Worker subtrees
// deserialized from remote processes are stitched in with Graft.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// chunkSpans is the span capacity of one chunk; inlineAttrs the number of
// attributes a span holds before spilling to a heap slice.
const (
	chunkSpans  = 32
	inlineAttrs = 3
)

// spanChunk is one fixed-capacity block of spans. Chunks never move, so a
// *Span stays valid for the trace's lifetime.
type spanChunk [chunkSpans]Span

// Trace is one render's spans. All spans of a trace share its mutex, so
// concurrent shard goroutines may open children of the same parent.
type Trace struct {
	mu sync.Mutex
	id string
	// start is the root span's start; every span keeps its start as an
	// offset from it, read with one monotonic clock read (time.Since).
	start time.Time
	// exported marks a trace whose tree a reader asked for (Export).
	exported atomic.Bool
	// first holds the root and the first chunkSpans-1 spans; more holds
	// later chunks. n counts the spans carved so far, in creation order.
	first spanChunk
	more  []*spanChunk
	n     int
}

// NewID returns a random 64-bit hex identifier for correlating a render
// across processes and log lines.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// fixed ID rather than panicking in a diagnostics path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// New starts a trace whose root span is named name. id may be empty; use
// NewID to mint one when the trace crosses process boundaries.
func New(name, id string) *Trace {
	t := &Trace{id: id, start: time.Now()}
	t.spanLocked(name, 0)
	return t
}

// spanLocked carves the next span from the trace's chunks. Caller holds mu
// (or owns the trace exclusively, as New does).
func (t *Trace) spanLocked(name string, start time.Duration) *Span {
	sp := t.at(t.n)
	if sp == nil {
		c := new(spanChunk)
		t.more = append(t.more, c)
		sp = &c[0]
	}
	t.n++
	sp.trace, sp.name, sp.start = t, name, start
	return sp
}

// at returns the i'th span slot, or nil when its chunk is not allocated.
func (t *Trace) at(i int) *Span {
	if i < chunkSpans {
		return &t.first[i]
	}
	k := i/chunkSpans - 1
	if k >= len(t.more) {
		return nil
	}
	return &t.more[k][i%chunkSpans]
}

// ID returns the trace's render ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &t.first[0]
}

// Export marks the trace as one whose tree a reader asked for: a shard
// coordinator then asks its workers for their subtrees (Span.Exported).
// No-op on nil.
func (t *Trace) Export() {
	if t == nil {
		return
	}
	t.exported.Store(true)
}

// End closes the root span if it is still open.
func (t *Trace) End() {
	if t == nil {
		return
	}
	t.Root().End()
}

// Duration reports the root span's duration (elapsed time so far if the
// trace has not ended).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Root().durLocked()
}

// Walk calls fn with the name and duration of every span the trace itself
// recorded, in creation order; grafted remote subtrees are skipped. It
// builds nothing: spans are read a chunk's worth at a time into a stack
// buffer, and fn runs with the trace unlocked. Open spans report their
// elapsed time so far.
func (t *Trace) Walk(fn func(name string, dur time.Duration)) {
	if t == nil {
		return
	}
	type span struct {
		name string
		dur  time.Duration
	}
	var buf [chunkSpans]span
	for i := 0; ; {
		t.mu.Lock()
		k := 0
		for ; k < len(buf) && i < t.n; k, i = k+1, i+1 {
			sp := t.at(i)
			buf[k] = span{sp.name, sp.durLocked()}
		}
		t.mu.Unlock()
		if k == 0 {
			return
		}
		for _, sp := range buf[:k] {
			fn(sp.name, sp.dur)
		}
	}
}

// Tree snapshots the whole span tree, grafts included, as a Node tree.
// Start offsets are microseconds relative to the root span's start. Open
// spans report their elapsed time so far.
func (t *Trace) Tree() *Node {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Root().nodeLocked()
}

// Span is one timed region of a trace. Spans are created by New and
// Span.Child; a nil *Span is the disabled tracer: every method returns
// immediately.
type Span struct {
	trace *Trace
	name  string
	start time.Duration // offset from the trace's start
	dur   time.Duration // 0 while open
	// attrs[:nattrs] are the first attributes; later ones go to extra.
	attrs  [inlineAttrs]attr
	nattrs int
	extra  []attr
	// Children form a singly linked list in creation order.
	firstChild, lastChild, next *Span
	grafts                      []*Node // deserialized remote subtrees
}

// attr is a typed key/value attribute attached to a span.
type attr struct {
	key  string
	str  string
	int  int64
	kind byte // 's' string, 'i' int64
}

// Child opens a sub-span. Safe to call from multiple goroutines on the
// same parent. Returns nil (and does nothing) on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	start := time.Since(s.trace.start)
	s.trace.mu.Lock()
	c := s.trace.spanLocked(name, start)
	s.linkLocked(c)
	s.trace.mu.Unlock()
	return c
}

// linkLocked appends c to s's children. Caller holds trace.mu.
func (s *Span) linkLocked(c *Span) {
	if s.lastChild == nil {
		s.firstChild = c
	} else {
		s.lastChild.next = c
	}
	s.lastChild = c
}

// End closes the span. Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	if s.dur == 0 {
		s.dur = time.Since(s.trace.start) - s.start
		if s.dur <= 0 {
			s.dur = 1 // clock granularity: never leave an ended span "open"
		}
	}
	s.trace.mu.Unlock()
}

// durLocked is the span's duration, or its elapsed time while open.
// Caller holds trace.mu.
func (s *Span) durLocked() time.Duration {
	if s.dur > 0 {
		return s.dur
	}
	return time.Since(s.trace.start) - s.start
}

// SetInt attaches an integer attribute. No-op on nil.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.addLocked(attr{key: key, kind: 'i', int: v})
	s.trace.mu.Unlock()
}

// SetStr attaches a string attribute. No-op on nil.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.addLocked(attr{key: key, kind: 's', str: v})
	s.trace.mu.Unlock()
}

// addLocked stores a, inline while there is room. Caller holds trace.mu.
func (s *Span) addLocked(a attr) {
	if s.nattrs < inlineAttrs {
		s.attrs[s.nattrs] = a
		s.nattrs++
		return
	}
	s.extra = append(s.extra, a)
}

// Note records an already-completed child span of duration d ending now.
// Used for work measured externally (e.g. spill-tier demotions timed by
// atomic counters) where open/close instrumentation would race.
func (s *Span) Note(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	if d <= 0 {
		d = 1
	}
	start := time.Since(s.trace.start) - d
	s.trace.mu.Lock()
	c := s.trace.spanLocked(name, start)
	c.dur = d
	s.linkLocked(c)
	s.trace.mu.Unlock()
	return c
}

// TraceID returns the ID of the trace this span belongs to ("" on nil).
// The ID is immutable after New, so no locking is needed; shard fan-out
// uses it to stamp the X-FP-Render-ID propagation header.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace.id
}

// Exported reports whether the span's trace is marked for a reader
// (Trace.Export); false on nil.
func (s *Span) Exported() bool {
	return s != nil && s.trace.exported.Load()
}

// Graft attaches a deserialized remote subtree (e.g. a worker's span tree
// returned over HTTP) under this span. The subtree's start offsets remain
// relative to its own root — remote clocks are not reconciled. Walk skips
// grafts: they are the remote process's spans. No-op on nil receiver or
// nil node.
func (s *Span) Graft(n *Node) {
	if s == nil || n == nil {
		return
	}
	s.trace.mu.Lock()
	s.grafts = append(s.grafts, n)
	s.trace.mu.Unlock()
}

// Node is the wire/JSON form of a span tree.
type Node struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"` // offset from the tree root's start
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*Node        `json:"children,omitempty"`
}

// nodeLocked converts the span subtree to Nodes. Caller holds trace.mu.
func (s *Span) nodeLocked() *Node {
	n := &Node{
		Name:    s.name,
		StartUS: s.start.Microseconds(),
		DurUS:   s.durLocked().Microseconds(),
	}
	if na := s.nattrs + len(s.extra); na > 0 {
		n.Attrs = make(map[string]any, na)
		for _, a := range s.attrs[:s.nattrs] {
			n.Attrs[a.key] = a.value()
		}
		for _, a := range s.extra {
			n.Attrs[a.key] = a.value()
		}
	}
	var kids int
	for c := s.firstChild; c != nil; c = c.next {
		kids++
	}
	if kids+len(s.grafts) > 0 {
		n.Children = make([]*Node, 0, kids+len(s.grafts))
		for c := s.firstChild; c != nil; c = c.next {
			n.Children = append(n.Children, c.nodeLocked())
		}
		n.Children = append(n.Children, s.grafts...)
	}
	return n
}

// value is the attribute's JSON value.
func (a *attr) value() any {
	if a.kind == 'i' {
		return a.int
	}
	return a.str
}

// Visit walks the node tree depth-first, calling fn with each node and
// its depth. Nil-safe.
func (n *Node) Visit(fn func(depth int, n *Node)) {
	if n == nil {
		return
	}
	n.visit(0, fn)
}

func (n *Node) visit(depth int, fn func(int, *Node)) {
	fn(depth, n)
	for _, c := range n.Children {
		c.visit(depth+1, fn)
	}
}

type ctxKey struct{}

// With returns a context carrying sp as the active span. Passing a nil
// span returns ctx unchanged, keeping the disabled path allocation-free.
func With(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFrom returns the active span carried by ctx, or nil. The nil result
// is directly usable: all span methods no-op on nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Now is the observability clock: the one sanctioned wall/monotonic time
// source for the determinism-critical engine packages (sqlengine, mc, vg,
// aggregate, stats). Those packages must compute results as pure functions
// of (scenario, bindings, seed) — fplint's fpdeterminism analyzer forbids
// them direct time.Now/time.Since calls — but they still stamp spans and
// operator counters. Routing that timing through obs keeps the contract
// auditable: obs readings feed traces and metrics, never result columns.
func Now() time.Time { return time.Now() }

// Since returns the time elapsed since t on the observability clock; see
// Now for why engine packages use this instead of time.Since.
func Since(t time.Time) time.Duration { return time.Since(t) }
