package fuzzyprophet

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/value"
)

// TestShardAnswerShape: a worker answers exactly what the coordinator
// stitches, built once. A vector-mode answer carries the shard's vectors
// and no sketch, and a sketch-only answer one sketch per column and no
// vector; Rows counts the shard's rows either way. A worker answers its
// shard as one range, so it records no sketch-merge span.
func TestShardAnswerShape(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var points []map[string]any
	for week := 0; week < 3; week++ {
		points = append(points, map[string]any{"current": week, "purchase1": 16, "purchase2": 40, "feature": 36})
	}
	const worlds = 120
	shard := WorldShard{Lo: 20, Hi: 80}
	rows := shard.Hi - shard.Lo
	columns := len(scn.OutputColumns())
	for _, sketchOnly := range []bool{false, true} {
		label := fmt.Sprintf("sketch_only=%v", sketchOnly)
		w, err := scn.NewShardWorker()
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRenderTrace()
		got, err := w.EvaluateShard(WithTrace(ctx, rt), points, worlds, 0, shard, sketchOnly)
		rt.End()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		merges := 0
		rt.Tree().Visit(func(_ int, n *TraceNode) {
			if n.Name == "sketch-merge" {
				merges++
			}
		})
		if merges != 0 {
			t.Errorf("%s: %d sketch-merge spans, want 0", label, merges)
		}
		for i, res := range got {
			if res.Rows != rows {
				t.Errorf("%s, point %d: %d rows, want %d", label, i, res.Rows, rows)
			}
			if sketchOnly {
				if res.Columns != nil || len(res.Sketches) != columns {
					t.Fatalf("%s, point %d: %d vectors and %d sketches, want 0 and %d",
						label, i, len(res.Columns), len(res.Sketches), columns)
				}
				for col, sk := range res.Sketches {
					if sk.Count != int64(rows) {
						t.Errorf("%s, point %d: %s sketch counts %d rows, want %d", label, i, col, sk.Count, rows)
					}
				}
				continue
			}
			if res.Sketches != nil || len(res.Columns) != columns {
				t.Fatalf("%s, point %d: %d vectors and %d sketches, want %d and 0",
					label, i, len(res.Columns), len(res.Sketches), columns)
			}
		}
	}
}

// countingCapacity counts the failure-schedule bases the capacity model
// draws and the purchase-schedule overlays it replays over them.
type countingCapacity struct {
	*models.CapacityModel
	bases, overlays atomic.Int64
}

func (c *countingCapacity) Base(seed uint64, out []byte) {
	c.bases.Add(1)
	c.CapacityModel.Base(seed, out)
}

func (c *countingCapacity) Overlay(seed uint64, args []value.Value, base []byte, out []float64) error {
	c.overlays.Add(1)
	return c.CapacityModel.Overlay(seed, args, base, out)
}

// TestShardWorkerDrawsBasesOnce: a worker serving one world range keeps
// each world's failure schedule across requests, so a request at a new
// purchase pair replays only overlays — 200 bases over two pairs, not 400
// — while a new seed base or range start draws them again. The answers are
// those of a fresh worker.
func TestShardWorkerDrawsBasesOnce(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	capacity := &countingCapacity{CapacityModel: models.NewCapacityModel(models.DefaultCapacityConfig())}
	if err := sys.registry.Register(models.NewDemandModel(models.DefaultDemandConfig())); err != nil {
		t.Fatal(err)
	}
	if err := sys.registry.Register(capacity); err != nil {
		t.Fatal(err)
	}
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	ref := demoSystem(t)
	oracle, err := ref.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sweep := func(p1, p2 int) []map[string]any {
		var points []map[string]any
		for week := 0; week < models.Weeks; week++ {
			points = append(points, map[string]any{"current": week, "purchase1": p1, "purchase2": p2, "feature": 36})
		}
		return points
	}
	const worlds = 400
	capacity.bases.Store(0)
	capacity.overlays.Store(0)
	w, err := scn.NewShardWorker()
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		p1, p2          int
		seed            uint64
		shard           WorldShard
		bases, overlays int64
	}{
		{16, 32, 0, WorldShard{Lo: 200, Hi: 400}, 200, 200},
		{24, 40, 0, WorldShard{Lo: 200, Hi: 400}, 200, 400},
		{24, 40, 7, WorldShard{Lo: 200, Hi: 400}, 400, 600},
		{16, 32, 7, WorldShard{Lo: 0, Hi: 200}, 600, 800},
	} {
		label := fmt.Sprintf("purchases (%d, %d), seed %d, %+v", step.p1, step.p2, step.seed, step.shard)
		points := sweep(step.p1, step.p2)
		got, err := w.EvaluateShard(ctx, points, worlds, step.seed, step.shard, false)
		if err != nil {
			t.Fatal(err)
		}
		if b, o := capacity.bases.Load(), capacity.overlays.Load(); b != step.bases || o != step.overlays {
			t.Errorf("%s: %d bases and %d overlays in all, want %d and %d", label, b, o, step.bases, step.overlays)
		}
		fresh, err := oracle.NewShardWorker()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.EvaluateShard(ctx, points, worlds, step.seed, step.shard, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for col, vec := range want[i].Columns {
				for k := range vec {
					if math.Float64bits(got[i].Columns[col][k]) != math.Float64bits(vec[k]) {
						t.Fatalf("%s, point %d: %s[%d] = %v, a fresh worker's %v", label, i, col, k, got[i].Columns[col][k], vec[k])
					}
				}
			}
		}
	}
}
