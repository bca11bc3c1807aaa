package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden wire-format fixtures")

// goldenFP is a fixed fake scenario fingerprint for wire fixtures.
const goldenFP = "8c1f37a0d9b45e627c3a1b09e8d47f5a8c1f37a0d9b45e627c3a1b09e8d47f5a"

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "wire", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), bytes.TrimSpace(got)) {
		t.Errorf("wire format drifted from %s:\n got: %s\nwant: %s", path, got, bytes.TrimSpace(want))
	}
}

// TestWireGoldenFixtures pins the v4 wire format: the steady-state
// fingerprint-only request for a two-point batch, the full-payload
// re-send, the sketch-only variant, the worker's distinguishable cache-miss
// answer, and the binary response frame. A diff here means the wire
// protocol changed — bump fp.ShardProtocolVersion before updating fixtures.
func TestWireGoldenFixtures(t *testing.T) {
	points := []map[string]any{{"budget": 12.0, "week": 3.0}, {"budget": 12.0, "week": 4.0}}

	slim := shardRequest{
		Proto:       fp.ShardProtocolVersion,
		Fingerprint: goldenFP,
		Points:      points,
		Worlds:      100000,
		Seed:        20110612,
		Lo:          25000,
		Hi:          50000,
	}
	raw, err := json.Marshal(slim)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "request_v4_slim.json", raw)

	sketch := slim
	sketch.SketchOnly = true
	raw, err = json.Marshal(sketch)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "request_v4_sketch_only.json", raw)

	full := slim
	full.SQL = "CREATE SCENARIO demo AS SELECT Gaussian(100, 15) AS demand"
	full.Tables = []tableDef{{
		Name:    "regions",
		Columns: []string{"region", "share"},
		Rows:    [][]any{{"us-east", 0.4}, {"europe", 0.6}},
	}}
	raw, err = json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "request_v4_full.json", raw)

	// The 409 cache-miss body, produced by a real worker.
	_, ts := newTestServer(t, func(c *Config) { c.WorkerMode = true })
	resp, err := http.Post(ts.URL+"/shard/render", "application/json",
		bytes.NewReader(mustMarshal(t, slim)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("uncached fingerprint = %d, want 409", resp.StatusCode)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "response_409_scenario_not_cached.json", bytes.TrimSpace(body.Bytes()))

	// A 200 answer to the two-point request: one frame holding a point with
	// a vector-and-sketch column and a sketch-only column, a sketch-only
	// point, and one trace, hex-encoded.
	frame, err := encodeShardFrame(&shardResponse{
		Points: []*fp.ShardResult{{
			Rows:    2,
			Columns: map[string][]float64{"demand": {1.5, math.Inf(1)}},
			Sketches: map[string]fp.ColumnSketch{
				"demand": {Count: 2, Mean: math.Inf(1), M2: math.NaN(), Min: 1.5, Max: math.Inf(1), Compression: 200,
					Centroids: []stats.Centroid{{Mean: 1.5, Weight: 1}, {Mean: math.Inf(1), Weight: 1}}},
				"overload": {Count: 2, Mean: 0.5, M2: 0.5, Min: 0, Max: 1, Compression: 200,
					Centroids: []stats.Centroid{{Mean: 0, Weight: 1}, {Mean: 1, Weight: 1}}},
			},
		}, {
			Rows: 2,
			Sketches: map[string]fp.ColumnSketch{
				"overload": {Count: 2, Mean: 1, M2: 0, Min: 1, Max: 1, Compression: 200,
					Centroids: []stats.Centroid{{Mean: 1, Weight: 2}}},
			},
		}},
		Trace: &obs.Node{Name: "worker-shard", DurUS: 42, Attrs: map[string]any{"lo": 0, "hi": 2, "points": 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "response_200_frame.hex", []byte(hex.EncodeToString(frame)))

	// The render answer's graph: a styled series, a second-axis series and
	// a series with no points (its vectors encode as null), under a
	// degraded stats block.
	graph := fp.Graph{
		Axis: "current",
		X:    []float64{0, 1},
		Series: []fp.Series{{
			Name: "EXPECT overload", Agg: "EXPECT", Column: "overload", Style: []string{"bold", "red"},
			Y: []float64{0.25, 0.5}, CI95: []float64{0.125, 0},
		}, {
			Name: "EXPECT capacity", Agg: "EXPECT", Column: "capacity", Style: []string{"blue", "y2"}, SecondAxis: true,
			Y: []float64{1200, 1187.5}, CI95: []float64{3.5, 4},
		}, {
			Name: "EXPECT demand", Agg: "EXPECT", Column: "demand",
		}},
		Stats: fp.RenderStats{Points: 2, Recomputed: 1, Remapped: 1, Elapsed: 1500000, Degraded: true, WorldsCompleted: 40},
	}
	raw, err = json.Marshal(renderResponse{Graph: &graph, Degraded: true, WorldsCompleted: 40})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "render_graph.json", raw)
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
