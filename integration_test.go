package fuzzyprophet

import (
	"context"
	"math"
	"strings"
	"testing"
)

// Cross-mode integration tests: the online graph, the offline optimizer,
// direct evaluation and the Query Generator must tell one consistent story
// about the same scenario.

func TestIntegrationOnlineOfflineConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	sys := demoSystem(t)
	scn, err := sys.Compile(`
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 16;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY 16;
DECLARE PARAMETER @feature AS SET (36);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current EXPECT overload, EXPECT capacity WITH y2;
OPTIMIZE SELECT @feature, @purchase1, @purchase2 FROM results
WHERE MAX(EXPECT overload) < 0.05 AND @purchase1 <= @purchase2
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2;`)
	if err != nil {
		t.Fatal(err)
	}
	const worlds = 150

	// Offline: find the optimum.
	res, err := scn.Optimize(context.Background(), nil, WithWorlds(worlds))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) == 0 {
		t.Fatal("no feasible optimum")
	}
	best := res.Best[0]

	// Online: render at the optimum's pins; the max of the overload series
	// must equal the optimizer's constraint metric for that group.
	session, err := scn.OpenSession(WithWorlds(worlds))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"purchase1", "purchase2", "feature"} {
		if err := session.SetParam(p, best.Group[p]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := session.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var maxOverload float64
	for _, y := range g.Series[0].Y {
		if y > maxOverload {
			maxOverload = y
		}
	}
	want := best.Metrics["MAX(EXPECT(overload))"]
	if math.Abs(maxOverload-want) > 1e-9 {
		t.Errorf("online max overload %g != offline metric %g", maxOverload, want)
	}
	if maxOverload >= 0.05 {
		t.Errorf("optimum violates its own constraint: %g", maxOverload)
	}

	// Direct evaluation at one week must match the graph's value there.
	week := 20
	sum, err := scn.Evaluate(context.Background(), map[string]any{
		"current": week, "purchase1": best.Group["purchase1"],
		"purchase2": best.Group["purchase2"], "feature": best.Group["feature"],
	}, WithWorlds(worlds))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum["overload"].Mean-g.Series[0].Y[week]) > 1e-9 {
		t.Errorf("direct E[overload] %g != graph %g", sum["overload"].Mean, g.Series[0].Y[week])
	}
	if math.Abs(sum["capacity"].Mean-g.Series[1].Y[week]) > 1e-9 {
		t.Errorf("direct E[capacity] %g != graph %g", sum["capacity"].Mean, g.Series[1].Y[week])
	}
}

// The Query Generator's pure TSQL is genuinely standalone: stripped of
// every Fuzzy Prophet extension, referencing only the worlds table.
func TestIntegrationGeneratedSQLIsPure(t *testing.T) {
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := scn.GeneratedSQL(map[string]any{
		"current": 10, "purchase1": 8, "purchase2": 24, "feature": 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"@", "DECLARE", "GRAPH", "OPTIMIZE", "DemandModel", "CapacityModel"} {
		if strings.Contains(sql, forbidden) {
			t.Errorf("generated SQL is not pure (contains %q):\n%s", forbidden, sql)
		}
	}
	if !strings.Contains(sql, "__worlds") {
		t.Errorf("generated SQL must read the worlds table:\n%s", sql)
	}
}

// Reuse must never change what the user sees: a full online exploration
// with reuse enabled produces (numerically almost) the same graphs as one
// without.
func TestIntegrationReuseInvisibleToUser(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	sys := demoSystem(t)
	scn, err := sys.Compile(figure2)
	if err != nil {
		t.Fatal(err)
	}
	moves := []struct {
		param string
		val   int
	}{
		{"purchase1", 16}, {"purchase2", 32}, {"feature", 36},
		{"purchase1", 20}, {"feature", 12}, {"purchase2", 36},
	}
	run := func(disable bool) []*Graph {
		opts := []EvalOption{WithWorlds(100)}
		if disable {
			opts = append(opts, WithoutReuse())
		}
		session, err := scn.OpenSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		var graphs []*Graph
		for _, m := range moves {
			if err := session.SetParam(m.param, m.val); err != nil {
				t.Fatal(err)
			}
			g, err := session.Render(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
		return graphs
	}
	withReuse := run(false)
	withoutReuse := run(true)
	var maxDiff float64
	for gi := range withReuse {
		for si := range withReuse[gi].Series {
			for pi := range withReuse[gi].Series[si].Y {
				a := withReuse[gi].Series[si].Y[pi]
				b := withoutReuse[gi].Series[si].Y[pi]
				d := math.Abs(a-b) / (1 + math.Abs(b))
				if d > maxDiff {
					maxDiff = d
				}
			}
		}
	}
	// Identity reuse is exact; affine remaps and minority-mode windows
	// admit bounded drift. The user-visible error budget is well under the
	// Monte Carlo noise of 100 worlds (~0.1 relative on probabilities).
	if maxDiff > 0.05 {
		t.Errorf("reuse visibly changed the graphs: max relative diff %g", maxDiff)
	}
}
