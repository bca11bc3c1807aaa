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
	sim.SetFloat("rate", 0.5)
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
	if got.Attrs["worlds"] != int64(1000) || got.Attrs["site"] != "demand" || got.Attrs["rate"] != 0.5 {
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
		c.SetFloat("f", 1.5)
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
