package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	fp "fuzzyprophet"
)

func benchServer(b *testing.B) (string, func()) {
	b.Helper()
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{System: sys, DefaultWorlds: 60})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	return ts.URL, func() { ts.Close(); srv.Close() }
}

func benchJSON(b *testing.B, method, url string, body any) []byte {
	b.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			b.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		b.Fatalf("%s %s = %d: %s", method, url, resp.StatusCode, data)
	}
	return data
}

// BenchmarkHTTP_RenderCoalesced: the hot path a dashboard polls — renders
// at an unchanged param version are served from the single-flight cache
// without simulation.
func BenchmarkHTTP_RenderCoalesced(b *testing.B) {
	base, stop := benchServer(b)
	defer stop()
	var scn scenarioJSON
	json.Unmarshal(benchJSON(b, "POST", base+"/scenarios", registerRequest{SQL: testScenario}), &scn)
	var sess sessionJSON
	json.Unmarshal(benchJSON(b, "POST", base+"/scenarios/"+scn.ID+"/sessions", openSessionRequest{}), &sess)
	benchJSON(b, "GET", base+"/sessions/"+sess.ID+"/render", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchJSON(b, "GET", base+"/sessions/"+sess.ID+"/render", nil)
	}
}

// BenchmarkHTTP_SliderAdjustRender: a slider move plus re-render — the
// interactive latency the paper's online mode optimizes, over the wire.
func BenchmarkHTTP_SliderAdjustRender(b *testing.B) {
	base, stop := benchServer(b)
	defer stop()
	var scn scenarioJSON
	json.Unmarshal(benchJSON(b, "POST", base+"/scenarios", registerRequest{SQL: testScenario}), &scn)
	var sess sessionJSON
	json.Unmarshal(benchJSON(b, "POST", base+"/scenarios/"+scn.ID+"/sessions", openSessionRequest{}), &sess)
	positions := []int{0, 8, 16}
	benchJSON(b, "GET", base+"/sessions/"+sess.ID+"/render", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchJSON(b, "PUT", base+"/sessions/"+sess.ID+"/params",
			map[string]any{"purchase1": positions[i%len(positions)]})
		benchJSON(b, "GET", base+"/sessions/"+sess.ID+"/render", nil)
	}
}

// BenchmarkHTTP_SliderRevisit: a slider moving between positions it has
// visited often enough that every point is a memo hit — the warm revisit
// where the HTTP envelope and tracing are most of the cost. Allocations per
// op are reported so CI's benchmark artifact tracks them.
func BenchmarkHTTP_SliderRevisit(b *testing.B) {
	base, stop := benchServer(b)
	defer stop()
	var scn scenarioJSON
	json.Unmarshal(benchJSON(b, "POST", base+"/scenarios", registerRequest{SQL: testScenario}), &scn)
	var sess sessionJSON
	json.Unmarshal(benchJSON(b, "POST", base+"/scenarios/"+scn.ID+"/sessions", openSessionRequest{}), &sess)
	positions := []int{0, 8, 16}
	move := func(i int) {
		benchJSON(b, "PUT", base+"/sessions/"+sess.ID+"/params",
			map[string]any{"purchase1": positions[i%len(positions)]})
		benchJSON(b, "GET", base+"/sessions/"+sess.ID+"/render", nil)
	}
	for i := 0; i < 4*len(positions); i++ { // a position's fourth render on is a memo hit
		move(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		move(i)
	}
}

// BenchmarkHTTP_EvaluateBatch: batch point evaluation through the shared
// reuse cache.
func BenchmarkHTTP_EvaluateBatch(b *testing.B) {
	base, stop := benchServer(b)
	defer stop()
	var scn scenarioJSON
	json.Unmarshal(benchJSON(b, "POST", base+"/scenarios", registerRequest{SQL: testScenario}), &scn)
	points := make([]map[string]any, 0, 6)
	for wk := 0; wk < 6; wk++ {
		points = append(points, map[string]any{"current": wk, "purchase1": 8, "feature": 4})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchJSON(b, "POST", base+"/scenarios/"+scn.ID+"/evaluate", evaluateRequest{Points: points})
	}
}

// BenchmarkHTTP_RegisterScenario: compile + register throughput, each
// iteration a distinct script so compilation is not amortized.
func BenchmarkHTTP_RegisterScenario(b *testing.B) {
	base, stop := benchServer(b)
	defer stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := testScenario + fmt.Sprintf("\n-- variant %d\n", i)
		benchJSON(b, "POST", base+"/scenarios", registerRequest{SQL: sql, ID: "bench"})
	}
}
