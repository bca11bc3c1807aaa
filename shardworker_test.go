package fuzzyprophet

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// TestShardAnswerShape: a worker answers exactly what the coordinator
// stitches, built once. Over one local range and over several, a
// vector-mode answer carries the shard's vectors and no sketch, and a
// sketch-only answer one sketch per column and no vector; Rows counts the
// shard's rows either way. Several ranges stitch to the one range's
// vectors bit for bit inside one sketch-merge span per point; a one-range
// shard records none.
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
		var oneRange []*ShardResult
		for _, shards := range []int{1, 3} {
			label := fmt.Sprintf("sketch_only=%v, %d ranges", sketchOnly, shards)
			w, err := scn.NewShardWorker(WithShards(shards))
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
			want := 0
			if shards > 1 {
				want = len(points)
			}
			if merges != want {
				t.Errorf("%s: %d sketch-merge spans, want %d", label, merges, want)
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
				if oneRange == nil {
					continue
				}
				for col, want := range oneRange[i].Columns {
					vec := res.Columns[col]
					if len(vec) != len(want) {
						t.Fatalf("%s, point %d: %s has %d rows, %d over one range", label, i, col, len(vec), len(want))
					}
					for k := range want {
						if math.Float64bits(vec[k]) != math.Float64bits(want[k]) {
							t.Fatalf("%s, point %d: %s[%d] = %v, %v over one range", label, i, col, k, vec[k], want[k])
						}
					}
				}
			}
			if shards == 1 {
				oneRange = got
			}
		}
	}
}
