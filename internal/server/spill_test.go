package server

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// metricValue extracts the value of a single-sample metric from a
// Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("metric %s: parsing %q: %v", name, rest, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSpillAcrossRestart: with a RAM budget far below the basis working
// set and a spill dir configured, renders demote bases out-of-core (and
// the /metrics exposition says so), re-renders stay exact, and after a
// full server restart against the same directories the warm-started
// scenario re-addresses its spilled bases — the first warm render
// recomputes nothing and matches the cold render byte for byte.
func TestSpillAcrossRestart(t *testing.T) {
	spillDir := t.TempDir()
	snapDir := t.TempDir()
	mutate := func(c *Config) {
		c.SpillDir = spillDir
		c.SnapshotDir = snapDir
		c.StoreBudget = 2048 // a 60-world basis is ~640B: a handful fit
	}

	srv1, ts1 := newTestServer(t, mutate)
	scn1 := registerScenario(t, ts1.URL)
	sess1 := openSession(t, ts1.URL, scn1.ID, openSessionRequest{})
	var r1 renderResponse
	if code := call(t, "GET", ts1.URL+"/sessions/"+sess1.ID+"/render", nil, &r1); code != http.StatusOK {
		t.Fatalf("render = %d", code)
	}

	text := scrape(t, ts1.URL)
	if d := metricValue(t, text, "fpserver_spill_demotions"); d == 0 {
		t.Fatal("no demotions despite a tiny RAM budget and a spill dir")
	}
	if b := metricValue(t, text, "fpserver_spill_bytes"); b == 0 {
		t.Fatal("spill tier holds no bytes after demotions")
	}
	if e := metricValue(t, text, "fpserver_spill_errors"); e != 0 {
		t.Fatalf("spill errors: %v", e)
	}
	if q := metricValue(t, text, "fpserver_spill_quarantined"); q != 0 {
		t.Fatalf("quarantined spill files: %v", q)
	}

	// A second render of the same point reuses spilled bases exactly.
	var r1b renderResponse
	if code := call(t, "GET", ts1.URL+"/sessions/"+sess1.ID+"/render", nil, &r1b); code != http.StatusOK {
		t.Fatalf("re-render = %d", code)
	}
	for i := range r1.Graph.Series[0].Y {
		if r1.Graph.Series[0].Y[i] != r1b.Graph.Series[0].Y[i] {
			t.Fatalf("re-render with spilled bases diverges at week %d", i)
		}
	}

	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, mutate)
	scn2 := registerScenario(t, ts2.URL)
	if !scn2.Warm {
		t.Fatal("re-registration after restart should warm-start from the snapshot")
	}
	sess2 := openSession(t, ts2.URL, scn2.ID, openSessionRequest{})
	var r2 renderResponse
	if code := call(t, "GET", ts2.URL+"/sessions/"+sess2.ID+"/render", nil, &r2); code != http.StatusOK {
		t.Fatalf("warm render = %d", code)
	}
	if r2.Graph.Stats.Recomputed != 0 {
		t.Errorf("warm render recomputed %d weeks despite spilled bases: %+v", r2.Graph.Stats.Recomputed, r2.Graph.Stats)
	}
	for i := range r1.Graph.Series[0].Y {
		if r1.Graph.Series[0].Y[i] != r2.Graph.Series[0].Y[i] {
			t.Fatalf("warm render over spilled bases diverges at week %d", i)
		}
	}
	text2 := scrape(t, ts2.URL)
	if q := metricValue(t, text2, "fpserver_spill_quarantined"); q != 0 {
		t.Fatalf("reopen quarantined spill files: %v", q)
	}
}

// TestSpillSameContentTwoIDs: two ids registered with identical content
// share one reuse cache, and so one spill tier. Rendering one at other
// slider positions between the other's first visit and its revisit leaves
// the revisit's graph unchanged.
func TestSpillSameContentTwoIDs(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.SpillDir = t.TempDir()
		c.StoreBudget = 1 // every basis is demoted as soon as it is stored
	})
	register := func(id string) scenarioJSON {
		t.Helper()
		var scn scenarioJSON
		if code := call(t, "POST", ts.URL+"/scenarios", registerRequest{ID: id, SQL: testScenario}, &scn); code != http.StatusCreated {
			t.Fatalf("register %s = %d", id, code)
		}
		return scn
	}
	render := func(id string, params map[string]any) renderResponse {
		t.Helper()
		sess := openSession(t, ts.URL, id, openSessionRequest{Params: params})
		var r renderResponse
		if code := call(t, "GET", ts.URL+"/sessions/"+sess.ID+"/render", nil, &r); code != http.StatusOK {
			t.Fatalf("render %s = %d", id, code)
		}
		return r
	}

	register("a")
	if b := register("b"); !b.Warm {
		t.Error("a registration of content already registered under another id should share its cache")
	}
	first := render("a", nil)
	render("b", map[string]any{"purchase1": 16, "feature": 8})
	again := render("a", nil)
	for si, s := range first.Graph.Series {
		for i, y := range s.Y {
			if again.Graph.Series[si].Y[i] != y {
				t.Fatalf("series %d point %d: revisit %v, first visit %v", si, i, again.Graph.Series[si].Y[i], y)
			}
		}
	}
}
