package online

import (
	"context"
	"math"
	"sync"
	"testing"

	"fuzzyprophet/internal/core"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/storage"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// sameFrame reports whether two frames plot the same X values and the same
// series values and CI95 bands, bit for bit.
func sameFrame(a, b *Graph) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if len(a.X) != len(b.X) || len(a.Series) != len(b.Series) {
		return false
	}
	for i := range a.Series {
		sa, sb := a.Series[i], b.Series[i]
		if len(sa.Y) != len(sb.Y) || len(sa.Y) != len(a.X) {
			return false
		}
		for j := range sa.Y {
			if !same(a.X[j], b.X[j]) || !same(sa.Y[j], sb.Y[j]) || !same(sa.CI95[j], sb.CI95[j]) {
				return false
			}
		}
	}
	return true
}

// TestPointMemoConcurrentSessions: two sessions sharing one reuse engine
// render concurrently while a third session renders at other pins and so
// writes new bases, so the point memo is read, recorded and trimmed from
// several goroutines at once. Every frame equals the session's first
// render, and a warm frame is served entirely from the memo.
func TestPointMemoConcurrentSessions(t *testing.T) {
	const worlds, renders = 40, 4
	ctx := context.Background()
	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		t.Fatal(err)
	}
	if err := models.RegisterDefaults(reg); err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.Compile(figure2, reg)
	if err != nil {
		t.Fatal(err)
	}
	reuse, err := mc.NewReuse(core.DefaultConfig(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*Session
	var first []*Graph
	for _, feature := range []int64{12, 36} {
		s, err := NewSession(scn, mc.Options{Worlds: worlds, Reuse: reuse})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetParam("feature", value.Int(feature)); err != nil {
			t.Fatal(err)
		}
		g, err := s.Render(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sessions, first = append(sessions, s), append(first, g)
	}

	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for r := 0; r < renders; r++ {
				g, err := s.Render(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameFrame(first[i], g) {
					t.Errorf("session %d render %d differs from its first render", i, r)
				}
			}
		}(i, s)
	}
	writer, err := NewSession(scn, mc.Options{Worlds: worlds, Reuse: reuse})
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.SetParam("purchase1", value.Int(4)); err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := writer.Render(ctx); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	for i, s := range sessions {
		tr := obs.New("render", obs.NewID())
		g, err := s.Render(obs.With(ctx, tr.Root()))
		if err != nil {
			t.Fatal(err)
		}
		tr.End()
		if !sameFrame(first[i], g) {
			t.Errorf("session %d: traced render differs from its first render", i)
		}
		points, hits := 0, 0
		tr.Tree().Visit(func(_ int, n *obs.Node) {
			if n.Name == "point" {
				points++
				if n.Attrs["memo_hit"] == int64(1) {
					hits++
				}
			}
		})
		if points != len(g.X) || hits != points {
			t.Errorf("session %d: %d of %d points served from the memo, want all %d", i, hits, points, len(g.X))
		}
	}
}
