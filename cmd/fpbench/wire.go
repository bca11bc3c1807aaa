package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/server"
	"fuzzyprophet/internal/server/protocoltest"
	"fuzzyprophet/internal/sqlparser"
)

// The wire experiment: bytes on the wire per shard exchange, full versus
// slim. A real coordinator drives a real worker over loopback HTTP through
// the protocoltest byte-counting proxy. The full cost is the first-contact
// request (script + side tables + bindings) and the full per-world response
// vectors; the steady state is the fingerprint-only request, and sketch-only
// mode replaces the O(worlds) response with O(compression) merged sketches. The headline
// number — response shrink with sketch_only at 10^5 worlds — is asserted
// to exceed 10x, matching the wire-protocol acceptance bar.

// wireBenchReport is the BENCH_wire.json schema.
type wireBenchReport struct {
	Benchmark string `json:"benchmark"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Scenario  string `json:"scenario"`
	Worlds    int    `json:"worlds"`
	Points    int    `json:"points"`
	// Requests: bytes per shard request. Full is the first-contact payload;
	// slim is the fingerprint-only steady state.
	RequestFullBytes int     `json:"request_full_bytes"`
	RequestSlimBytes int     `json:"request_slim_bytes"`
	RequestReduction float64 `json:"request_reduction"`
	// Responses: bytes per shard response. Full carries per-world sample
	// vectors; sketch carries merged moments + t-digest centroids.
	ResponseFullBytes   int     `json:"response_full_bytes"`
	ResponseSketchBytes int     `json:"response_sketch_bytes"`
	ResponseReduction   float64 `json:"response_reduction"`
	// SlimFraction is the share of steady-state shard requests that carried
	// no script payload (everything after the one-time warm-up re-send).
	SlimFraction float64 `json:"slim_fraction"`
	// Elapsed wall time of the full-mode and sketch-mode evaluations.
	FullMs   float64 `json:"full_ms"`
	SketchMs float64 `json:"sketch_ms"`
}

// newWireSystem builds a System that can run the bundled example
// scenarios: demo models plus the OrderVolume VG (same shape as the
// benchfix registry, expressed through the public API).
func newWireSystem() (*fp.System, error) {
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		return nil, err
	}
	err = sys.RegisterVG("OrderVolume", 2, func(seed uint64, args []float64) (float64, error) {
		src := rng.New(seed)
		base := 1800 + 40*args[0] + 2*args[1]
		return float64(src.Poisson(base)) * (1 + 0.05*src.Norm()), nil
	})
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// wireCall performs one JSON request against the coordinator.
func wireCall(ctx context.Context, method, url string, in, out any) error {
	var rd io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: %d: %s", method, url, resp.StatusCode, body)
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
}

// runWireBench is experiment "wire".
func runWireBench(ctx context.Context, worlds int, outPath string) error {
	const scenarioName = "capacityplanning"
	section(fmt.Sprintf("WIRE: full vs slim bytes per shard exchange (%d worlds, %s)", worlds, scenarioName))

	sysW, err := newWireSystem()
	if err != nil {
		return err
	}
	sysC, err := newWireSystem()
	if err != nil {
		return err
	}

	worker, err := server.New(server.Config{System: sysW, WorkerMode: true})
	if err != nil {
		return err
	}
	defer worker.Close()
	wts := httptest.NewServer(worker)
	defer wts.Close()

	proxy := protocoltest.New(wts.URL)
	defer proxy.Close()

	coord, err := server.New(server.Config{
		System:        sysC,
		Workers:       []string{proxy.URL()},
		DefaultWorlds: worlds,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	cts := httptest.NewServer(coord)
	defer cts.Close()

	// Register the scenario and pick three parameter points off its grid.
	var scn struct {
		ID     string `json:"id"`
		Params []struct {
			Name   string `json:"name"`
			Values []any  `json:"values"`
		} `json:"params"`
	}
	reg := map[string]any{"sql": sqlparser.ExampleScenarios()[scenarioName]}
	if err := wireCall(ctx, "POST", cts.URL+"/scenarios", reg, &scn); err != nil {
		return err
	}
	var points []map[string]any
	for k := 0; k < 3; k++ {
		pt := make(map[string]any, len(scn.Params))
		for _, p := range scn.Params {
			i := k
			if i >= len(p.Values) {
				i = len(p.Values) - 1
			}
			pt[p.Name] = p.Values[i]
		}
		points = append(points, pt)
	}

	evaluate := func(sketchOnly bool) (time.Duration, error) {
		req := map[string]any{"points": points, "worlds": worlds, "sketch_only": sketchOnly}
		start := time.Now()
		err := wireCall(ctx, "POST", cts.URL+"/scenarios/"+scn.ID+"/evaluate", req, nil)
		return time.Since(start), err
	}

	report := wireBenchReport{
		Benchmark: "wire-protocol-v2",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Scenario:  scenarioName,
		Worlds:    worlds,
		Points:    len(points),
	}

	// Full-response mode: the first shard request is the one-time warm-up
	// re-send (the full cost); the rest are the slim steady state.
	fullElapsed, err := evaluate(false)
	if err != nil {
		return err
	}
	report.FullMs = float64(fullElapsed.Microseconds()) / 1000
	var slimCount, slimBytes, fullCount, fullBytes, respBytes, respCount int
	for _, e := range proxy.ShardExchanges() {
		if e.HasSQLPayload() {
			fullCount++
			fullBytes += e.RequestBytes
		} else {
			slimCount++
			slimBytes += e.RequestBytes
		}
		if e.Status == http.StatusOK {
			respCount++
			respBytes += e.ResponseBytes
		}
	}
	if fullCount == 0 || slimCount == 0 || respCount == 0 {
		return fmt.Errorf("wire bench: degenerate exchange mix (full=%d slim=%d ok=%d)", fullCount, slimCount, respCount)
	}
	report.RequestFullBytes = fullBytes / fullCount
	report.RequestSlimBytes = slimBytes / slimCount
	report.RequestReduction = float64(report.RequestFullBytes) / float64(report.RequestSlimBytes)
	report.ResponseFullBytes = respBytes / respCount
	report.SlimFraction = float64(slimCount) / float64(slimCount+fullCount)

	// Sketch-only mode: the worker cache is warm, so every request is slim
	// and every response is merged sketches instead of sample vectors.
	proxy.Reset()
	sketchElapsed, err := evaluate(true)
	if err != nil {
		return err
	}
	report.SketchMs = float64(sketchElapsed.Microseconds()) / 1000
	respBytes, respCount = 0, 0
	for _, e := range proxy.ShardExchanges() {
		if e.HasSQLPayload() {
			return fmt.Errorf("wire bench: sketch-only steady state sent a full payload (%d bytes)", e.RequestBytes)
		}
		if e.Status == http.StatusOK {
			respCount++
			respBytes += e.ResponseBytes
		}
	}
	if respCount == 0 {
		return fmt.Errorf("wire bench: no successful sketch-only exchanges")
	}
	report.ResponseSketchBytes = respBytes / respCount
	report.ResponseReduction = float64(report.ResponseFullBytes) / float64(report.ResponseSketchBytes)

	fmt.Printf("%-34s %14s %14s %10s\n", "", "full", "slim", "shrink")
	fmt.Printf("%-34s %14d %14d %9.1fx\n", "request bytes/shard", report.RequestFullBytes, report.RequestSlimBytes, report.RequestReduction)
	fmt.Printf("%-34s %14d %14d %9.1fx\n", "response bytes/shard (sketch_only)", report.ResponseFullBytes, report.ResponseSketchBytes, report.ResponseReduction)
	fmt.Printf("%-34s %14.1f %14.1f\n", "evaluate wall ms", report.FullMs, report.SketchMs)
	fmt.Printf("steady-state slim fraction: %.2f (the single full exchange is the one-time warm-up)\n", report.SlimFraction)

	if report.ResponseReduction <= 10 {
		return fmt.Errorf("wire bench: sketch-only response shrink %.1fx at %d worlds, want > 10x",
			report.ResponseReduction, worlds)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (sketch-only response shrink: %.1fx)\n", outPath, report.ResponseReduction)
	return nil
}
