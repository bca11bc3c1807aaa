package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceTree(t *testing.T) {
	tr := New("render", "abc123")
	if tr.ID() != "abc123" {
		t.Fatalf("ID = %q", tr.ID())
	}
	root := tr.Root()
	sim := root.Child("simulate")
	sim.SetInt("worlds", 1000)
	sim.SetStr("site", "demand")
	sim.End()
	plan := root.Child("plan-execute")
	plan.End()
	root.Note("spill-demote", 3*time.Millisecond)
	tr.End()

	n := tr.Tree()
	if n.Name != "render" {
		t.Fatalf("root name %q", n.Name)
	}
	if len(n.Children) != 3 {
		t.Fatalf("children = %d, want 3", len(n.Children))
	}
	if n.DurUS <= 0 {
		t.Fatalf("root DurUS = %d, want > 0", n.DurUS)
	}
	got := n.Children[0]
	if got.Name != "simulate" {
		t.Fatalf("child 0 = %q", got.Name)
	}
	if got.Attrs["worlds"] != int64(1000) || got.Attrs["site"] != "demand" {
		t.Fatalf("attrs = %v", got.Attrs)
	}
	if note := n.Children[2]; note.Name != "spill-demote" || note.DurUS < 2900 {
		t.Fatalf("note = %+v", note)
	}
}

func TestTreeJSONRoundTrip(t *testing.T) {
	tr := New("render", "")
	c := tr.Root().Child("stage")
	c.SetInt("rows", 7)
	c.End()
	tr.End()
	data, err := json.Marshal(tr.Tree())
	if err != nil {
		t.Fatal(err)
	}
	var back Node
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "render" || len(back.Children) != 1 || back.Children[0].Name != "stage" {
		t.Fatalf("round trip = %+v", back)
	}
	// JSON numbers decode as float64; MergeTree must still sum them.
	m := MergeTree(&back)
	if m.Children[0].Attrs["rows"] != 7 {
		t.Fatalf("merged attrs = %v", m.Children[0].Attrs)
	}
}

func TestGraft(t *testing.T) {
	remote := &Node{Name: "worker-shard", DurUS: 42, Children: []*Node{{Name: "plan-execute", DurUS: 40}}}
	tr := New("render", "")
	sh := tr.Root().Child("shard")
	sh.Graft(remote)
	sh.End()
	tr.End()
	n := tr.Tree()
	if len(n.Children) != 1 || len(n.Children[0].Children) != 1 {
		t.Fatalf("tree = %+v", n)
	}
	if g := n.Children[0].Children[0]; g.Name != "worker-shard" || g.DurUS != 42 {
		t.Fatalf("graft = %+v", g)
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := New("render", "")
	root := tr.Root()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.Child("shard")
			sp.SetInt("lo", 0)
			sp.End()
		}()
	}
	wg.Wait()
	tr.End()
	if n := tr.Tree(); len(n.Children) != 16 {
		t.Fatalf("children = %d, want 16", len(n.Children))
	}
}

// TestNilDisabledPath asserts that the disabled tracer (nil spans, no span
// in context) performs zero allocations — the guarantee the instrumented
// render hot path relies on. The call shapes are the ones mc.EvaluatePoint
// makes per point: child spans, attributes, a chained Note, and the child
// pushed onto the context.
func TestNilDisabledPath(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFrom(ctx)
		c := sp.Child("simulate")
		c.SetInt("worlds", 100)
		c.SetStr("site", "x")
		c.Note("spill", time.Millisecond)
		c.Note("spill-demote", time.Millisecond).SetInt("count", 1)
		if With(ctx, c) != ctx {
			t.Fatal("With(ctx, nil child) must return ctx unchanged")
		}
		c.Graft(nil)
		c.End()
		ctx2 := With(ctx, nil)
		if ctx2 != ctx {
			t.Fatal("With(nil) must return ctx unchanged")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
	var tr *Trace
	if tr.Root() != nil || tr.ID() != "" || tr.Tree() != nil || tr.Duration() != 0 {
		t.Fatal("nil trace methods must be inert")
	}
	tr.End()
}

func TestContextPropagation(t *testing.T) {
	tr := New("render", "")
	ctx := With(context.Background(), tr.Root())
	if SpanFrom(ctx) != tr.Root() {
		t.Fatal("SpanFrom did not return the active span")
	}
	if SpanFrom(context.Background()) != nil {
		t.Fatal("SpanFrom on empty ctx must be nil")
	}
}

func TestMergeAndFormat(t *testing.T) {
	tr := New("render", "")
	root := tr.Root()
	for i := 0; i < 3; i++ {
		p := root.Child("point")
		s := p.Child("simulate")
		s.SetInt("worlds", 100)
		s.End()
		p.End()
	}
	tr.End()
	m := MergeTree(tr.Tree())
	if len(m.Children) != 1 {
		t.Fatalf("merged children = %d, want 1", len(m.Children))
	}
	pt := m.Children[0]
	if pt.Count != 3 {
		t.Fatalf("point count = %d, want 3", pt.Count)
	}
	if pt.Children[0].Attrs["worlds"] != 300 {
		t.Fatalf("summed attr = %v", pt.Children[0].Attrs)
	}
	out := FormatTree(tr.Tree())
	if !strings.Contains(out, "render") || !strings.Contains(out, "3×") ||
		!strings.Contains(out, "worlds=300") || !strings.Contains(out, "%") {
		t.Fatalf("format output:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.Contains(line, "%") {
			t.Fatalf("line missing percentage: %q", line)
		}
	}
}

func TestVisit(t *testing.T) {
	n := &Node{Name: "a", Children: []*Node{{Name: "b"}, {Name: "c", Children: []*Node{{Name: "d"}}}}}
	var names []string
	var depths []int
	n.Visit(func(d int, nd *Node) { names = append(names, nd.Name); depths = append(depths, d) })
	if strings.Join(names, "") != "abcd" {
		t.Fatalf("order = %v", names)
	}
	if depths[3] != 2 {
		t.Fatalf("depths = %v", depths)
	}
	var nilNode *Node
	nilNode.Visit(func(int, *Node) { t.Fatal("visited nil") })
}

// buildRevisitTrace records the span shape of a memo-hit session render:
// a root, then per point a "point" span with a "simulate" child — 107 spans
// for 53 points — with three attributes on every span.
func buildRevisitTrace(points int) *Trace {
	tr := New("render", "id")
	root := tr.Root()
	root.SetInt("points", int64(points))
	root.SetInt("worlds", 400)
	root.SetStr("kind", "render")
	for i := 0; i < points; i++ {
		p := root.Child("point")
		p.SetInt("worlds", 400)
		p.SetInt("memo_hit", 1)
		p.SetStr("site", "demand")
		s := p.Child("simulate")
		s.SetInt("sites", 2)
		s.SetInt("sites_cached", 2)
		s.SetStr("site", "demand")
		s.End()
		p.End()
	}
	tr.End()
	return tr
}

// TestRecordingAllocsPerChunk: recording spans and attributes allocates
// per chunk of spans, not per span or per attribute.
func TestRecordingAllocsPerChunk(t *testing.T) {
	const points = 53
	spans := 1 + 2*points
	chunks := (spans + chunkSpans - 1) / chunkSpans
	allocs := testing.AllocsPerRun(100, func() { buildRevisitTrace(points) })
	if max := float64(chunks + 3); allocs > max {
		t.Fatalf("a %d-span trace allocates %v times, want <= %v (%d chunks + 3)", spans, allocs, max, chunks)
	}
}

// TestWalkOwnSpans: Walk visits every span the trace recorded, with the
// durations Tree reports, and skips grafted remote subtrees.
func TestWalkOwnSpans(t *testing.T) {
	tr := buildRevisitTrace(40) // crosses chunk boundaries
	sh := tr.Root().Child("shard")
	sh.Graft(&Node{Name: "worker-shard", DurUS: 9, Children: []*Node{{Name: "simulate", DurUS: 7}}})
	sh.End()
	tree := tr.Tree()
	want := map[string][]int64{}
	tree.Visit(func(_ int, n *Node) { want[n.Name] = append(want[n.Name], n.DurUS) })
	got := map[string][]int64{}
	tr.Walk(func(name string, d time.Duration) { got[name] = append(got[name], d.Microseconds()) })
	if _, ok := got["worker-shard"]; ok {
		t.Fatalf("Walk visited a grafted span: %v", got)
	}
	if n, m := len(got["simulate"]), len(want["simulate"]); n != 40 || m != 41 {
		t.Fatalf("simulate spans: Walk %d (want 40), Tree %d (want 41 with the graft)", n, m)
	}
	for _, name := range []string{"render", "point", "shard"} {
		if g, w := got[name], want[name]; len(g) != len(w) || (name != "render" && len(g) > 0 && g[0] != w[0]) {
			t.Errorf("%s: Walk %v, Tree %v", name, g, w)
		}
	}
	for i, d := range got["simulate"] {
		if d != want["simulate"][i] {
			t.Errorf("simulate #%d: Walk %dµs, Tree %dµs", i, d, want["simulate"][i])
		}
	}
}

// TestTreeAcrossChunks: the tree keeps creation order and every attribute
// when spans span several chunks and attributes overflow the inline slots.
func TestTreeAcrossChunks(t *testing.T) {
	tr := New("render", "")
	root := tr.Root()
	for i := 0; i < 3*chunkSpans; i++ {
		c := root.Child("point")
		for k := 0; k < inlineAttrs+2; k++ {
			c.SetInt(string(rune('a'+k)), int64(i*10+k))
		}
		c.Note("simulate", time.Microsecond)
		c.End()
	}
	tr.End()
	n := tr.Tree()
	if len(n.Children) != 3*chunkSpans {
		t.Fatalf("children = %d, want %d", len(n.Children), 3*chunkSpans)
	}
	last := string(rune('a' + inlineAttrs + 1))
	for i, c := range n.Children {
		if len(c.Attrs) != inlineAttrs+2 || c.Attrs["a"] != int64(i*10) || c.Attrs[last] != int64(i*10+inlineAttrs+1) {
			t.Fatalf("child %d attrs = %v", i, c.Attrs)
		}
		if len(c.Children) != 1 || c.Children[0].Name != "simulate" {
			t.Fatalf("child %d children = %+v", i, c.Children)
		}
	}
}

func TestExport(t *testing.T) {
	var nilSpan *Span
	if nilSpan.Exported() {
		t.Fatal("nil span reports exported")
	}
	var nilTrace *Trace
	nilTrace.Export()
	tr := New("render", "")
	c := tr.Root().Child("shard")
	if c.Exported() {
		t.Fatal("a new trace is exported")
	}
	tr.Export()
	if !c.Exported() || !tr.Root().Exported() {
		t.Fatal("Export did not mark the trace's spans")
	}
}

// TestReadersBesideLateWriters: a losing hedge attempt may still set an
// attribute on, graft into or open spans under its shard span while the
// render's trace is walked and snapshotted; both sides run at once here
// (meant for -race).
func TestReadersBesideLateWriters(t *testing.T) {
	tr := New("render", "")
	shard := tr.Root().Child("shard")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := shard.Child("simulate")
				c.SetStr("wire", "slim")
				shard.Graft(&Node{Name: "worker-shard"})
				c.End()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		var n int
		tr.Walk(func(string, time.Duration) { n++ })
		if n < 2 {
			t.Fatalf("Walk saw %d spans, want >= 2", n)
		}
		tr.Tree()
	}
	wg.Wait()
	var n int
	tr.Walk(func(string, time.Duration) { n++ })
	if want := 2 + 4*50; n != want {
		t.Fatalf("Walk saw %d spans, want %d", n, want)
	}
}
