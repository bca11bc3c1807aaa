package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"

	"fuzzyprophet/bench/scenarios"
)

// sizes are the input sizes of a run. The benchmark always uses
// defaultSizes; the self-test shrinks them to finish in seconds.
type sizes struct {
	worlds      int  // fpserver -worlds: worlds per point of every shared session and sweep
	coldWorlds  int  // worlds of cold_first_render's private sessions
	sweepPoints int  // points per fleet_sweep op
	rounds      int  // fresh server set-ups per run; the window is split among them
	maxOps      int  // stop a round after this many ops (0: only the window ends it)
	patient     bool // wait the machine's bad minutes out (speed.go); the self-test does not
}

var defaultSizes = sizes{worlds: 400, coldWorlds: 32, sweepPoints: 4, rounds: 3, patient: true}

// scenarioDef is what gets registered with the server before set-up.
type scenarioDef struct {
	id     string
	sql    string
	tables []tableDef
}

// tableDef is a side table in the form POST /scenarios takes it.
type tableDef struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

var (
	capacityPlanning = scenarioDef{id: "capacityplanning", sql: scenarios.CapacityPlanning}
	serverFleet      = scenarioDef{id: "serverfleet", sql: scenarios.ServerFleet, tables: []tableDef{
		{Name: "regions", Columns: scenarios.RegionsColumns, Rows: scenarios.RegionsRows},
	}}
)

// workloadSpec is one named workload. Names are normative: BENCHMARK.json,
// the README and every later comparison use them.
type workloadSpec struct {
	name     string
	why      string
	topo     topology
	scenario scenarioDef
	// untilDone makes a round run until the workload has no more ops, not
	// until its share of the window has passed: first visits are not alike
	// (3 ms when every site maps onto a stored basis, 80 ms when none does),
	// so only the full set of 146 is the same population on every run.
	untilDone bool
	// size is the stated input size of one op: points and worlds per point.
	size func(sz sizes) (points, worlds int)
	new  func(rng *rand.Rand, sz sizes) instance
}

// instance is one round's state of a workload: it talks to fresh servers
// on which the scenario is already registered.
type instance interface {
	// setup opens sessions and does the warm-up ops.
	setup(ctx context.Context, c *client) error
	// next does one op. errDone means the workload has run out of ops.
	next(ctx context.Context, c *client, traced bool) (opRecord, error)
	// checks are the first answers of the round, kept for the replay check.
	checks() *answerLog
}

var errDone = errors.New("workload has no more ops")

const graphPoints = 53 // weeks 0..52 on both scenarios' axis

var workloads = []workloadSpec{
	{
		name:     "cold_first_render",
		why:      "Time to first graph with nothing to reuse: a private-seed session, so simulate/vg/models/rng do ~90% of the work.",
		scenario: capacityPlanning,
		size:     func(sz sizes) (int, int) { return graphPoints, sz.coldWorlds },
		new: func(rng *rand.Rand, sz sizes) instance {
			return &coldFirstRender{rng: rng, worlds: sz.coldWorlds}
		},
	},
	{
		name:      "slider_first_visit",
		why:       "Slider moves to never-visited positions: k-probe fingerprints, FindMapping/Apply, store writes, partial re-simulation.",
		scenario:  capacityPlanning,
		untilDone: true,
		size:      graphSize,
		new: func(rng *rand.Rand, sz sizes) instance {
			all := allCombos()
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			return &sliderFirstVisit{slider: slider{scenario: capacityPlanning.id, worlds: sz.worlds}, order: all}
		},
	},
	{
		name:     "slider_revisit",
		why:      "Every site cached-exact: store reads, materialize, plan, aggregation, graph building, JSON and HTTP are the whole cost.",
		scenario: capacityPlanning,
		size:     graphSize,
		new:      newSliderRevisit,
	},
	{
		name:     "slider_revisit_spill",
		why:      "Same ops as slider_revisit with the working set ~7x a 256 KiB store budget: every render promotes/demotes through colstore.",
		topo:     spill,
		scenario: capacityPlanning,
		size:     graphSize,
		new:      newSliderRevisit,
	},
	{
		name:     "join_revisit",
		why:      "serverfleet's worlds x regions cross join, warm: the plan-execute- and aggregation-heavy render.",
		scenario: serverFleet,
		size:     graphSize,
		new: func(rng *rand.Rand, sz sizes) instance {
			return &joinRevisit{slider: slider{scenario: serverFleet.id, worlds: sz.worlds}}
		},
	},
	{
		name:     "fleet_sweep",
		why:      "Offline-mode sweep through a coordinator and two workers: shard fan-out, wire v2, worker-side simulate, sketch merge.",
		topo:     fleet,
		scenario: capacityPlanning,
		size:     func(sz sizes) (int, int) { return sz.sweepPoints, sz.worlds },
		new: func(rng *rand.Rand, sz sizes) instance {
			return &fleetSweep{rng: rng, points: sz.sweepPoints, worlds: sz.worlds}
		},
	},
}

func graphSize(sz sizes) (points, worlds int) { return graphPoints, sz.worlds }

func findWorkload(name string) (*workloadSpec, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// combo is one position of capacityplanning's three sliders.
type combo struct{ purchase1, purchase2, feature int }

func (c combo) params() map[string]any {
	return map[string]any{"purchase1": c.purchase1, "purchase2": c.purchase2, "feature": c.feature}
}

var (
	purchaseWeeks = []int{0, 8, 16, 24, 32, 40, 48}
	features      = []int{12, 36, 44}
)

func allCombos() []combo {
	var out []combo
	for _, p1 := range purchaseWeeks {
		for _, p2 := range purchaseWeeks {
			for _, f := range features {
				out = append(out, combo{p1, p2, f})
			}
		}
	}
	return out
}

// subtract returns now-before per key, dropping zeros.
func subtract(now, before map[string]int) map[string]int {
	d := make(map[string]int, len(now))
	for k, v := range now {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

func tracedQuery(traced bool) string {
	if traced {
		return "?trace=1"
	}
	return ""
}

// slider drives one shared-cache session: set the sliders, fetch the graph.
type slider struct {
	scenario string
	worlds   int
	session  string
	counts   map[string]int // the session's reuse counts as last reported
	log      answerLog
}

func (s *slider) checks() *answerLog { return &s.log }

func (s *slider) open(ctx context.Context, c *client) error {
	var resp sessionResponse
	_, err := c.roundTrip(ctx, "POST", "/scenarios/"+s.scenario+"/sessions", map[string]any{}, &resp)
	s.session = resp.ID
	return err
}

// move is the op of every slider workload: PUT the new positions, GET the
// graph, check the graph's shape.
func (s *slider) move(ctx context.Context, c *client, params map[string]any, traced bool) (opRecord, *renderResponse) {
	o := c.begin()
	var resp renderResponse
	err := o.call(ctx, "PUT", "/sessions/{id}/params", "/sessions/"+s.session+"/params", params, nil)
	if err == nil {
		err = o.call(ctx, "GET", "/sessions/{id}/render", "/sessions/"+s.session+"/render"+tracedQuery(traced), nil, &resp)
	}
	if err == nil {
		err = checkGraph(&resp)
	}
	o.graft(resp.Trace)
	var reuse map[string]int
	if err == nil {
		reuse = subtract(resp.ReuseCounts, s.counts)
		s.counts = resp.ReuseCounts
		s.log.addRender(0, s.worlds, params, resp.Graph)
	}
	return o.finish(traced, reuse, err), &resp
}

// warm does an unmeasured move during set-up; a failure there ends the run.
func (s *slider) warm(ctx context.Context, c *client, params map[string]any) (*renderResponse, error) {
	rec, resp := s.move(ctx, c, params, false)
	if rec.failure != "" {
		return nil, fmt.Errorf("set-up render at %v: %s", params, rec.failure)
	}
	return resp, nil
}

// coldFirstRender: each op opens a session with a seed of its own — a
// private, empty reuse engine — and fetches its first graph.
type coldFirstRender struct {
	rng    *rand.Rand
	worlds int
	log    answerLog
}

func (w *coldFirstRender) checks() *answerLog { return &w.log }

func (w *coldFirstRender) setup(ctx context.Context, c *client) error {
	for range 2 {
		if rec, _ := w.next(ctx, c, false); rec.failure != "" {
			return fmt.Errorf("warm-up op: %s", rec.failure)
		}
	}
	return nil
}

func (w *coldFirstRender) next(ctx context.Context, c *client, traced bool) (opRecord, error) {
	seed := w.rng.Uint64() | 1 // nonzero: zero would mean the shared cache
	o := c.begin()
	var sess sessionResponse
	var resp renderResponse
	err := o.call(ctx, "POST", "/scenarios/{id}/sessions", "/scenarios/"+capacityPlanning.id+"/sessions",
		map[string]any{"seed": seed, "worlds": w.worlds}, &sess)
	if err == nil {
		err = o.call(ctx, "GET", "/sessions/{id}/render", "/sessions/"+sess.ID+"/render"+tracedQuery(traced), nil, &resp)
	}
	if err == nil {
		err = checkGraph(&resp)
	}
	o.graft(resp.Trace)
	rec := o.finish(traced, resp.ReuseCounts, err)
	if err == nil {
		w.log.addRender(seed, w.worlds, nil, resp.Graph)
	}
	if sess.ID != "" { // outside the timed span
		if _, derr := c.roundTrip(ctx, "DELETE", "/sessions/"+sess.ID, nil, nil); derr != nil && rec.failure == "" {
			rec.failure = derr.Error()
		}
	}
	return rec, nil
}

// sliderFirstVisit: every op moves to a combination the session has never
// rendered.
type sliderFirstVisit struct {
	slider
	order []combo // order[0] is rendered by set-up, the rest one per op
	done  int
}

func (w *sliderFirstVisit) setup(ctx context.Context, c *client) error {
	if err := w.open(ctx, c); err != nil {
		return err
	}
	_, err := w.warm(ctx, c, w.order[0].params())
	w.done = 1
	return err
}

func (w *sliderFirstVisit) next(ctx context.Context, c *client, traced bool) (opRecord, error) {
	if w.done == len(w.order) {
		return opRecord{}, errDone
	}
	rec, _ := w.move(ctx, c, w.order[w.done].params(), traced)
	w.done++
	return rec, nil
}

// sliderRevisit: set-up renders 21 combinations (7 purchase1 x 3 feature);
// every op goes back to one of them, never the current one, so no render
// is coalesced with the one before.
type sliderRevisit struct {
	slider
	rng     *rand.Rand
	visited []combo
	first   [][]seriesBits // the answer each combination gave when first rendered
	current int
}

func newSliderRevisit(rng *rand.Rand, sz sizes) instance {
	w := &sliderRevisit{slider: slider{scenario: capacityPlanning.id, worlds: sz.worlds}, rng: rng}
	for _, p1 := range purchaseWeeks {
		for _, f := range features {
			w.visited = append(w.visited, combo{p1, 24, f})
		}
	}
	return w
}

func (w *sliderRevisit) setup(ctx context.Context, c *client) error {
	if err := w.open(ctx, c); err != nil {
		return err
	}
	for i, cb := range w.visited {
		resp, err := w.warm(ctx, c, cb.params())
		if err != nil {
			return err
		}
		w.first = append(w.first, bitsOf(resp.Graph))
		w.current = i
	}
	return nil
}

func (w *sliderRevisit) next(ctx context.Context, c *client, traced bool) (opRecord, error) {
	i := w.rng.IntN(len(w.visited) - 1)
	if i >= w.current {
		i++
	}
	w.current = i
	rec, resp := w.move(ctx, c, w.visited[i].params(), traced)
	if rec.failure == "" && !sameBits(bitsOf(resp.Graph), w.first[i]) {
		rec.failure = fmt.Sprintf("revisit of %v differs from its first render", w.visited[i])
	}
	return rec, nil
}

// joinRevisit: serverfleet, warm; each op flips @feature and re-renders.
type joinRevisit struct {
	slider
	first   [2][]seriesBits
	current int
}

var joinFeatures = [2]int{12, 36}

func (w *joinRevisit) setup(ctx context.Context, c *client) error {
	if err := w.open(ctx, c); err != nil {
		return err
	}
	for i, f := range joinFeatures {
		resp, err := w.warm(ctx, c, map[string]any{"feature": f})
		if err != nil {
			return err
		}
		w.first[i] = bitsOf(resp.Graph)
		w.current = i
	}
	return nil
}

func (w *joinRevisit) next(ctx context.Context, c *client, traced bool) (opRecord, error) {
	w.current = 1 - w.current
	rec, resp := w.move(ctx, c, map[string]any{"feature": joinFeatures[w.current]}, traced)
	if rec.failure == "" && !sameBits(bitsOf(resp.Graph), w.first[w.current]) {
		rec.failure = fmt.Sprintf("revisit of feature=%d differs from its first render", joinFeatures[w.current])
	}
	return rec, nil
}

// fleetSweep: each op evaluates consecutive weeks of one seeded grid cell,
// sketch-only, through the coordinator.
type fleetSweep struct {
	rng    *rand.Rand
	points int
	worlds int
	counts map[string]int
	log    answerLog
}

func (w *fleetSweep) checks() *answerLog { return &w.log }

func (w *fleetSweep) setup(ctx context.Context, c *client) error {
	// The first evaluate ships the full scenario to each worker and seeds
	// the coordinator's per-worker latency estimates.
	for range 2 {
		if rec, _ := w.next(ctx, c, false); rec.failure != "" {
			return fmt.Errorf("warm-up op: %s", rec.failure)
		}
	}
	return nil
}

func (w *fleetSweep) next(ctx context.Context, c *client, traced bool) (opRecord, error) {
	cell := combo{
		purchaseWeeks[w.rng.IntN(len(purchaseWeeks))],
		purchaseWeeks[w.rng.IntN(len(purchaseWeeks))],
		features[w.rng.IntN(len(features))],
	}
	week := w.rng.IntN(graphPoints - w.points + 1)
	points := make([]map[string]any, w.points)
	for i := range points {
		points[i] = cell.params()
		points[i]["current"] = week + i
	}
	o := c.begin()
	var resp evaluateResponse
	err := o.call(ctx, "POST", "/scenarios/{id}/evaluate", "/scenarios/"+capacityPlanning.id+"/evaluate"+tracedQuery(traced),
		map[string]any{"points": points, "sketch_only": true}, &resp)
	if err == nil {
		err = checkBatch(&resp, w.points, w.worlds)
	}
	o.graft(resp.Trace)
	var reuse map[string]int
	if err == nil {
		reuse = subtract(resp.ReuseCounts, w.counts)
		w.counts = resp.ReuseCounts
		w.log.addBatch(w.worlds, points, resp.Points)
	}
	return o.finish(traced, reuse, err), nil
}
