package server

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/sqlparser"
)

// testScenario is a reduced Figure 2 so tests stay fast.
const testScenario = `
DECLARE PARAMETER @current AS RANGE 0 TO 12 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 16 STEP BY 8;
DECLARE PARAMETER @feature AS SET (4, 8);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase1) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current EXPECT overload WITH bold red, EXPECT capacity WITH blue y2;
`

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := fp.New(fp.WithDemoModels())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{System: sys, DefaultWorlds: 60}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// call performs a JSON request and decodes the response body into out
// (when out is non-nil), returning the status code.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func registerScenario(t *testing.T, base string) scenarioJSON {
	t.Helper()
	var scn scenarioJSON
	if code := call(t, "POST", base+"/scenarios", registerRequest{SQL: testScenario}, &scn); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	return scn
}

func openSession(t *testing.T, base, scenarioID string, req openSessionRequest) sessionJSON {
	t.Helper()
	var sess sessionJSON
	if code := call(t, "POST", base+"/scenarios/"+scenarioID+"/sessions", req, &sess); code != http.StatusCreated {
		t.Fatalf("open session = %d", code)
	}
	return sess
}

// TestEndToEnd drives the full paper workflow over HTTP: compile → open
// session → slider move → render → batch evaluate → adjusted re-render,
// asserting the second render reports nonzero reuse.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, nil)
	scn := registerScenario(t, ts.URL)
	if scn.SpaceSize != 13*3*2 {
		t.Errorf("space size = %d, want %d", scn.SpaceSize, 13*3*2)
	}
	if scn.Warm {
		t.Error("first registration should not be warm")
	}

	sess := openSession(t, ts.URL, scn.ID, openSessionRequest{})
	if sess.Axis != "current" {
		t.Errorf("axis = %q", sess.Axis)
	}

	// Slider move.
	var setResp struct {
		Params map[string]any `json:"params"`
	}
	if code := call(t, "PUT", ts.URL+"/sessions/"+sess.ID+"/params",
		map[string]any{"purchase1": 8}, &setResp); code != http.StatusOK {
		t.Fatalf("set params = %d", code)
	}
	if got := setResp.Params["purchase1"]; got != float64(8) {
		t.Errorf("params echo = %v", setResp.Params)
	}

	// First render: everything computed fresh.
	var r1 renderResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/render", nil, &r1); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}
	if r1.Graph == nil || len(r1.Graph.Series) != 2 || len(r1.Graph.X) != 13 {
		t.Fatalf("unexpected graph shape: %+v", r1.Graph)
	}
	if r1.Graph.Stats.Recomputed != 13 {
		t.Errorf("first render recomputed = %d, want 13", r1.Graph.Stats.Recomputed)
	}

	// Batch evaluation through the same shared cache.
	var batch fp.BatchResult
	code := call(t, "POST", ts.URL+"/scenarios/"+scn.ID+"/evaluate", evaluateRequest{
		Points: []map[string]any{
			{"current": 3, "purchase1": 8, "feature": 4},
			{"current": 4, "purchase1": 8, "feature": 4},
		},
	}, &batch)
	if code != http.StatusOK {
		t.Fatalf("evaluate = %d", code)
	}
	if len(batch.Points) != 2 {
		t.Fatalf("batch points = %d", len(batch.Points))
	}
	if _, ok := batch.Points[0].Summaries["demand"]; !ok {
		t.Errorf("missing demand summary: %v", batch.Points[0].Summaries)
	}
	// The session rendered at purchase1=8 feature=4 already: the batch's
	// exact points are served from the shared cache.
	if batch.ReuseCounts["cached"] == 0 {
		t.Errorf("batch should hit the session-warmed shared cache: %v", batch.ReuseCounts)
	}

	// Adjusted re-render: the moved slider remaps, the rest is cached.
	if code := call(t, "PUT", ts.URL+"/sessions/"+sess.ID+"/params",
		map[string]any{"purchase1": 16}, nil); code != http.StatusOK {
		t.Fatalf("set params = %d", code)
	}
	var r2 renderResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/render", nil, &r2); code != http.StatusOK {
		t.Fatalf("second render = %d", code)
	}
	if reused := r2.Graph.Stats.Remapped + r2.Graph.Stats.Unchanged; reused == 0 {
		t.Errorf("second render reports no reuse: %+v", r2.Graph.Stats)
	}

	// The exploration map reflects the two rendered pin combinations.
	var mapResp struct {
		Cells [][]string `json:"cells"`
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/map?rows=purchase1&cols=feature", nil, &mapResp); code != http.StatusOK {
		t.Fatalf("exploration map = %d", code)
	}
	explored := 0
	for _, row := range mapResp.Cells {
		for _, cell := range row {
			if cell == "computed" {
				explored++
			}
		}
	}
	if explored != 2 {
		t.Errorf("explored cells = %d, want 2 (rendered at purchase1=8 and 16)", explored)
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/map?rows=current&cols=feature", nil, nil); code != http.StatusBadRequest {
		t.Errorf("map over the axis = %d, want 400", code)
	}

	// Session introspection reflects the work done.
	var info sessionJSON
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("get session = %d", code)
	}
	if info.Stats.Renders != 2 {
		t.Errorf("session renders = %d, want 2", info.Stats.Renders)
	}

	// Close; a render on the closed session is 404.
	if code := call(t, "DELETE", ts.URL+"/sessions/"+sess.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("close = %d", code)
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/render", nil, nil); code != http.StatusNotFound {
		t.Errorf("render after close = %d, want 404", code)
	}
}

// TestWarmStart kills and restarts the "server" with a snapshot dir: the
// restarted server's first render must be served from the snapshot (zero
// weeks recomputed, reuse > 0) — the acceptance criterion.
func TestWarmStart(t *testing.T) {
	dir := t.TempDir()

	srv1, ts1 := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	scn1 := registerScenario(t, ts1.URL)
	sess1 := openSession(t, ts1.URL, scn1.ID, openSessionRequest{})
	var r1 renderResponse
	if code := call(t, "GET", ts1.URL+"/sessions/"+sess1.ID+"/render", nil, &r1); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}
	// Kill the first server (Close writes the final snapshot).
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	scn2 := registerScenario(t, ts2.URL)
	if !scn2.Warm {
		t.Fatal("re-registration after restart should warm-start from the snapshot")
	}
	if scn2.Fingerprint != scn1.Fingerprint {
		t.Fatalf("fingerprint changed across restart: %s vs %s", scn1.Fingerprint, scn2.Fingerprint)
	}
	sess2 := openSession(t, ts2.URL, scn2.ID, openSessionRequest{})
	var r2 renderResponse
	if code := call(t, "GET", ts2.URL+"/sessions/"+sess2.ID+"/render", nil, &r2); code != http.StatusOK {
		t.Fatalf("warm render = %d", code)
	}
	if r2.Graph.Stats.Recomputed != 0 {
		t.Errorf("warm first render recomputed %d weeks, want 0: %+v", r2.Graph.Stats.Recomputed, r2.Graph.Stats)
	}
	if reused := r2.Graph.Stats.Unchanged + r2.Graph.Stats.Remapped; reused == 0 {
		t.Error("warm first render reports no fingerprint reuse")
	}
	if r2.ReuseCounts["cached"]+r2.ReuseCounts["identity"]+r2.ReuseCounts["affine"] == 0 {
		t.Errorf("warm render reuse counts: %v", r2.ReuseCounts)
	}
	// The values must agree with the cold render: remapping is exact for
	// cache hits.
	for i := range r1.Graph.Series[0].Y {
		if r1.Graph.Series[0].Y[i] != r2.Graph.Series[0].Y[i] {
			t.Fatalf("warm render diverges at week %d", i)
		}
	}

	// A snapshot stamped with the retired v1 layout is refused: the load
	// error is counted and the scenario registers with a cold cache.
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(struct{ Version int }{1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(srv2.snapshots.Path(scn2.Fingerprint), v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	srv3, ts3 := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	if scn3 := registerScenario(t, ts3.URL); scn3.Warm {
		t.Error("a v1-stamped snapshot warm-started the scenario")
	}
	if n := srv3.snapshots.Errors(); n != 1 {
		t.Errorf("snapshot errors = %d, want 1", n)
	}
}

// TestSessionBackpressure: MaxSessions admits exactly that many sessions,
// the next open gets 429, and closing one frees a slot.
func TestSessionBackpressure(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxSessions = 2 })
	scn := registerScenario(t, ts.URL)
	s1 := openSession(t, ts.URL, scn.ID, openSessionRequest{})
	openSession(t, ts.URL, scn.ID, openSessionRequest{})
	if code := call(t, "POST", ts.URL+"/scenarios/"+scn.ID+"/sessions", openSessionRequest{}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("third open = %d, want 429", code)
	}
	if code := call(t, "DELETE", ts.URL+"/sessions/"+s1.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("close = %d", code)
	}
	openSession(t, ts.URL, scn.ID, openSessionRequest{})
}

// TestRenderSingleFlight: a burst of concurrent renders at one param
// version coalesces into a single simulation.
func TestRenderSingleFlight(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	scn := registerScenario(t, ts.URL)
	sess := openSession(t, ts.URL, scn.ID, openSessionRequest{})

	const burst = 8
	var wg sync.WaitGroup
	codes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/sessions/" + sess.ID + "/render")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d = %d", i, code)
		}
	}
	ms, _ := srv.sessions.Get(sess.ID)
	if got := ms.Renders(); got != 1 {
		t.Errorf("simulated renders = %d, want 1 (coalesced %d)", got, ms.Coalesced())
	}
	if got := ms.Coalesced(); got != burst-1 {
		t.Errorf("coalesced = %d, want %d", got, burst-1)
	}
}

// TestReregistration: replacing a scenario keeps in-flight sessions on the
// old compilation (ref-counted) while new sessions get the new one.
func TestReregistration(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	var scn scenarioJSON
	if code := call(t, "POST", ts.URL+"/scenarios",
		registerRequest{SQL: testScenario, ID: "demo"}, &scn); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	sess := openSession(t, ts.URL, "demo", openSessionRequest{})
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/render", nil, nil); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}

	// Re-registering identical content carries the live warm cache over:
	// a fresh session's first render is served without new simulation.
	var same scenarioJSON
	if code := call(t, "POST", ts.URL+"/scenarios",
		registerRequest{SQL: testScenario, ID: "demo"}, &same); code != http.StatusCreated {
		t.Fatalf("idempotent re-register = %d", code)
	}
	if !same.Warm {
		t.Error("identical re-registration should carry the warm cache over")
	}
	carried := openSession(t, ts.URL, "demo", openSessionRequest{})
	var rc renderResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+carried.ID+"/render", nil, &rc); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}
	if rc.Graph.Stats.Recomputed != 0 {
		t.Errorf("carried-cache render recomputed %d weeks, want 0", rc.Graph.Stats.Recomputed)
	}
	if code := call(t, "DELETE", ts.URL+"/sessions/"+carried.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("close = %d", code)
	}

	// Re-register under the same ID with a different script.
	changed := strings.Replace(testScenario, "SET (4, 8)", "SET (4, 8, 10)", 1)
	var scn2 scenarioJSON
	if code := call(t, "POST", ts.URL+"/scenarios",
		registerRequest{SQL: changed, ID: "demo"}, &scn2); code != http.StatusCreated {
		t.Fatalf("re-register = %d", code)
	}
	if !scn2.Replaced || scn2.Generation != 2 {
		t.Errorf("replaced=%v generation=%d", scn2.Replaced, scn2.Generation)
	}
	if scn2.Fingerprint == scn.Fingerprint {
		t.Error("changed script should change the fingerprint")
	}
	if srv.registry.RetiredLive() != 1 {
		t.Errorf("retired-live = %d, want 1", srv.registry.RetiredLive())
	}

	// The old session still renders against its pinned compilation.
	var r renderResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/render", nil, &r); code != http.StatusOK {
		t.Fatalf("render on retired entry = %d", code)
	}
	if len(r.Graph.X) != 13 {
		t.Errorf("graph weeks = %d", len(r.Graph.X))
	}

	// Closing the last session drains the retired entry.
	if code := call(t, "DELETE", ts.URL+"/sessions/"+sess.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("close = %d", code)
	}
	if srv.registry.RetiredLive() != 0 {
		t.Errorf("retired-live after close = %d, want 0", srv.registry.RetiredLive())
	}
}

// TestIdleEviction: sessions idle past the TTL are swept; busy or fresh
// ones survive.
func TestIdleEviction(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.SessionTTL = 50 * time.Millisecond })
	scn := registerScenario(t, ts.URL)
	stale := openSession(t, ts.URL, scn.ID, openSessionRequest{})
	time.Sleep(70 * time.Millisecond)
	fresh := openSession(t, ts.URL, scn.ID, openSessionRequest{})

	if n := srv.sessions.Sweep(time.Now()); n != 1 {
		t.Fatalf("swept %d sessions, want 1", n)
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+stale.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("stale session = %d, want 404", code)
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+fresh.ID, nil, nil); code != http.StatusOK {
		t.Errorf("fresh session = %d, want 200", code)
	}
	if srv.sessions.Evicted() != 1 {
		t.Errorf("evicted counter = %d", srv.sessions.Evicted())
	}
}

// TestStreamKeepsSessionFromEviction: a progressive (SSE) render keeps its
// session busy. While the stream is blocked inside a VG call, a sweep at
// twice the TTL keeps the session (and with it the scenario pin); once the
// stream ends, the same sweep evicts it.
func TestStreamKeepsSessionFromEviction(t *testing.T) {
	const ttl = time.Minute
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	var enter sync.Once
	srv, ts := newTestServer(t, func(c *Config) {
		c.SessionTTL = ttl
		err := c.System.RegisterVG("Blocking", 1, func(seed uint64, args []float64) (float64, error) {
			if armed.Load() {
				enter.Do(func() { close(entered) })
				<-release
			}
			return args[0], nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	var scn scenarioJSON
	sql := `DECLARE PARAMETER @x AS RANGE 0 TO 2 STEP BY 1;
SELECT Blocking(@x) AS v INTO results;
GRAPH OVER @x EXPECT v;`
	if code := call(t, "POST", ts.URL+"/scenarios", registerRequest{SQL: sql}, &scn); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	sess := openSession(t, ts.URL, scn.ID, openSessionRequest{})

	armed.Store(true)
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		resp, err := http.Get(ts.URL + "/sessions/" + sess.ID + "/render?stream=1&start_worlds=8")
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	<-entered
	later := time.Now().Add(2 * ttl)
	if n := srv.sessions.Sweep(later); n != 0 {
		t.Errorf("a sweep during the stream evicted %d session(s), want 0", n)
	}
	close(release)
	<-streamed
	if n := srv.sessions.Sweep(later); n != 1 {
		t.Errorf("a sweep after the stream evicted %d session(s), want 1", n)
	}
}

// TestSetParamsEchoesEverySlider: PUT /params answers with every slider's
// position, the one just moved and those never set, as the library session
// holds them; the session's JSON shows the same positions.
func TestSetParamsEchoesEverySlider(t *testing.T) {
	_, ts := newTestServer(t, nil)
	scn := registerScenario(t, ts.URL)
	sess := openSession(t, ts.URL, scn.ID, openSessionRequest{})
	var set struct {
		Params map[string]any `json:"params"`
	}
	if code := call(t, "PUT", ts.URL+"/sessions/"+sess.ID+"/params", map[string]any{"purchase1": 8}, &set); code != http.StatusOK {
		t.Fatalf("set params = %d", code)
	}
	want := map[string]any{"purchase1": float64(8), "feature": float64(4)}
	if !reflect.DeepEqual(set.Params, want) {
		t.Errorf("PUT /params echo = %v, want %v", set.Params, want)
	}
	var info sessionJSON
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("get session = %d", code)
	}
	if !reflect.DeepEqual(info.Params, want) {
		t.Errorf("session params = %v, want %v", info.Params, want)
	}
}

// TestSetParamsAllOrNothing: a PUT /params body with one bad value answers
// 400 and moves no slider, not even the valid move beside it, and keeps the
// param version, so the next render is still served the cached frame. The
// valid move made on its own then renders a fresh frame, bit-equal to a new
// session's render at those pins.
func TestSetParamsAllOrNothing(t *testing.T) {
	_, ts := newTestServer(t, nil)
	scn := registerExample(t, ts.URL, "capacityplanning", sqlparser.ExampleScenarios()["capacityplanning"])
	render := func(sessionID string) renderResponse {
		t.Helper()
		var rr renderResponse
		if code := call(t, "GET", ts.URL+"/sessions/"+sessionID+"/render", nil, &rr); code != http.StatusOK {
			t.Fatalf("render = %d", code)
		}
		return rr
	}
	sess := openSession(t, ts.URL, scn.ID, openSessionRequest{})
	render(sess.ID)
	var before sessionJSON
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID, nil, &before); code != http.StatusOK {
		t.Fatalf("get session = %d", code)
	}
	// feature=36 is valid, purchase1=999 is outside its declared range.
	body := map[string]any{"feature": 36, "purchase1": 999}
	if code := call(t, "PUT", ts.URL+"/sessions/"+sess.ID+"/params", body, nil); code != http.StatusBadRequest {
		t.Fatalf("PUT /params %v = %d, want 400", body, code)
	}
	var after sessionJSON
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID, nil, &after); code != http.StatusOK {
		t.Fatalf("get session = %d", code)
	}
	if !reflect.DeepEqual(after.Params, before.Params) {
		t.Errorf("after a rejected PUT the session params = %v, want %v", after.Params, before.Params)
	}
	if !render(sess.ID).Coalesced {
		t.Error("a rejected PUT bumped the param version: the next render was not served the cached frame")
	}

	fresh := openSession(t, ts.URL, scn.ID, openSessionRequest{})
	for _, id := range []string{sess.ID, fresh.ID} {
		if code := call(t, "PUT", ts.URL+"/sessions/"+id+"/params", map[string]any{"feature": 36}, nil); code != http.StatusOK {
			t.Fatalf("set params = %d", code)
		}
	}
	got := render(sess.ID)
	if got.Coalesced {
		t.Error("the render after an applied move was served the cached frame")
	}
	assertSameGraph(t, *render(fresh.ID).Graph, *got.Graph)
}

// TestSSEProgressiveRender: the streaming variant delivers at least one
// refinement frame and a closing done event with reuse stats.
func TestSSEProgressiveRender(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.DefaultWorlds = 128 })
	scn := registerScenario(t, ts.URL)
	sess := openSession(t, ts.URL, scn.ID, openSessionRequest{})

	resp, err := http.Get(ts.URL + "/sessions/" + sess.ID + "/render?stream=1&start_worlds=32")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	frames, done := 0, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: frame":
			frames++
		case line == "event: done":
			done = true
		case strings.HasPrefix(line, "data: ") && done:
			var payload struct {
				Stats       fp.RenderStats `json:"stats"`
				ReuseCounts map[string]int `json:"reuse_counts"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &payload); err != nil {
				t.Fatalf("done payload: %v", err)
			}
			if payload.Stats.Points != 13 {
				t.Errorf("done stats points = %d", payload.Stats.Points)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 32 → 64 → 128 worlds: at least two refinement frames.
	if frames < 2 || !done {
		t.Errorf("frames = %d done = %v", frames, done)
	}
}

// TestCompileErrorsSurfacePosition: a syntax error comes back as 400 with
// the offending line.
func TestCompileErrorsSurfacePosition(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var body map[string]any
	code := call(t, "POST", ts.URL+"/scenarios",
		registerRequest{SQL: "DECLARE PARAMETER @x AS RANGE 0 TO"}, &body)
	if code != http.StatusBadRequest {
		t.Fatalf("bad sql = %d", code)
	}
	if body["error"] == "" || body["line"] == nil {
		t.Errorf("error body = %v", body)
	}
	// Unknown routes and IDs are 404.
	if code := call(t, "GET", ts.URL+"/scenarios/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown scenario = %d", code)
	}
	if code := call(t, "PUT", ts.URL+"/sessions/nope/params", map[string]any{"a": 1}, nil); code != http.StatusNotFound {
		t.Errorf("unknown session = %d", code)
	}
	// A bad slider value is a 400, not a 500.
	scn := registerScenario(t, ts.URL)
	sess := openSession(t, ts.URL, scn.ID, openSessionRequest{})
	if code := call(t, "PUT", ts.URL+"/sessions/"+sess.ID+"/params", map[string]any{"purchase1": 7}, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-space value = %d, want 400", code)
	}
	if code := call(t, "PUT", ts.URL+"/sessions/"+sess.ID+"/params", map[string]any{"nosuch": 1}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown param = %d, want 400", code)
	}
}

// TestHealthzAndMetrics: liveness JSON plus the Prometheus exposition
// carrying the reuse and session gauges.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)
	scn := registerScenario(t, ts.URL)
	sess := openSession(t, ts.URL, scn.ID, openSessionRequest{})
	if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/render", nil, nil); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}

	var health struct {
		Status    string `json:"status"`
		Scenarios int    `json:"scenarios"`
		Sessions  int    `json:"sessions"`
	}
	if code := call(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "ok" || health.Scenarios != 1 || health.Sessions != 1 {
		t.Errorf("healthz = %+v", health)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"fpserver_sessions_open 1",
		"fpserver_scenarios_registered 1",
		"fpserver_renders_total 1",
		"fpserver_reuse_store_entries",
		"fpserver_reuse_hit_rate",
		"fpserver_render_seconds_bucket",
		`fpserver_reuse_outcomes{kind="computed"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestSharedCacheAcrossSessions: two sessions of one scenario share the
// reuse cache — the second session's first render is served warm.
func TestSharedCacheAcrossSessions(t *testing.T) {
	_, ts := newTestServer(t, nil)
	scn := registerScenario(t, ts.URL)
	a := openSession(t, ts.URL, scn.ID, openSessionRequest{})
	if code := call(t, "GET", ts.URL+"/sessions/"+a.ID+"/render", nil, nil); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}
	b := openSession(t, ts.URL, scn.ID, openSessionRequest{})
	var r renderResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+b.ID+"/render", nil, &r); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}
	if r.Graph.Stats.Recomputed != 0 {
		t.Errorf("second tenant's first render recomputed %d weeks, want 0", r.Graph.Stats.Recomputed)
	}
	// A session with a private seed does NOT share the cache.
	c := openSession(t, ts.URL, scn.ID, openSessionRequest{Seed: 42})
	var rc renderResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+c.ID+"/render", nil, &rc); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}
	if rc.Graph.Stats.Recomputed == 0 {
		t.Error("private-seed session should simulate fresh")
	}
}

func TestRegisterValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if code := call(t, "POST", ts.URL+"/scenarios", registerRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty sql = %d", code)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/scenarios", strings.NewReader("{not json"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d", resp.StatusCode)
	}
	// Evaluate with an undeclared parameter key is 400.
	scn := registerScenario(t, ts.URL)
	if code := call(t, "POST", ts.URL+"/scenarios/"+scn.ID+"/evaluate", evaluateRequest{
		Points: []map[string]any{{"bogus": 1}},
	}, nil); code != http.StatusBadRequest {
		t.Errorf("bogus point key = %d, want 400", code)
	}
}

// TestPprofEndpoints asserts the profiling handlers are mounted only when
// EnablePprof is set (they expose internals, so off must mean absent, not
// merely empty).
func TestPprofEndpoints(t *testing.T) {
	_, off := newTestServer(t, nil)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, func(c *Config) { c.EnablePprof = true })
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof enabled: GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}
