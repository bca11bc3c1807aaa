// Package optimize implements Fuzzy Prophet's offline mode (paper §3.3):
// automated parameter optimization over the entire parameter space,
// expedited by fingerprint reuse.
//
// The OPTIMIZE statement of Figure 2 defines the semantics implemented
// here:
//
//	OPTIMIZE SELECT @feature, @purchase1, @purchase2
//	FROM results
//	WHERE MAX(EXPECT overload) < 0.01
//	GROUP BY feature, purchase1, purchase2
//	FOR MAX @purchase1, MAX @purchase2
//
// GROUP BY partitions the parameter space by the named parameters; the
// remaining ("free") parameters — @current here — sweep within each group.
// Inner probabilistic aggregates (EXPECT/EXPECT_STDDEV/PROB column) are
// estimated per free point over the Monte Carlo worlds; the enclosing
// aggregate (MAX/MIN/AVG/SUM) folds them across the free sweep. A group is
// feasible when the WHERE expression evaluates true. Among feasible groups
// the FOR goals select the lexicographic optimum — for Figure 2, "the
// latest purchase dates that keep the expected chance of overload below"
// the threshold.
package optimize

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/mc"
	"fuzzyprophet/internal/scenario"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// Options configures an optimization run.
type Options struct {
	// MC configures the per-point Monte Carlo evaluation (including the
	// reuse engine).
	MC mc.Options
	// Progress, when non-nil, is called for every evaluated point, in sweep
	// order, with running counts — the live view of §3.3's demo. The calls
	// for a group come once its batch has been evaluated.
	Progress func(done, total int, pt guide.Point, res *mc.PointResult)
}

// GroupRow is the outcome for one grouped-parameter assignment.
type GroupRow struct {
	// Group assigns the GROUP BY parameters.
	Group guide.Point
	// Feasible reports whether the WHERE constraint held.
	Feasible bool
	// Metrics holds each aggregate term of the constraint, keyed by its
	// SQL rendering (e.g. "MAX(EXPECT(overload))").
	Metrics map[string]float64
}

// Result is the outcome of an offline run.
type Result struct {
	// GroupParams and FreeParams name the partition of the space.
	GroupParams []string
	FreeParams  []string
	// Rows holds every group in exploration order.
	Rows []GroupRow
	// Best holds the lexicographic optimum among feasible rows; ties on
	// all goal values are all listed.
	Best []GroupRow
	// PointsEvaluated counts the points evaluated across every group's batch.
	PointsEvaluated int
	// GroupsTotal is the size of the grouped space: every group is explored.
	GroupsTotal int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// aggTerm is one "outer(inner(column))" term of the constraint.
type aggTerm struct {
	sql    string // canonical rendering, used as the metrics key
	outer  string // MAX, MIN, AVG or SUM ("" when the inner agg is bare)
	inner  string // EXPECT, EXPECT_STDDEV or PROB
	column string
}

// extractTerms finds the aggregate terms in the constraint expression.
func extractTerms(where sqlparser.Expr, freeCount int) ([]aggTerm, error) {
	var terms []aggTerm
	seen := map[string]bool{}
	var bad error
	sqlparser.WalkExpr(where, func(e sqlparser.Expr) {
		if bad != nil {
			return
		}
		call, ok := e.(sqlparser.FuncCall)
		if !ok {
			return
		}
		switch call.Name {
		case "MAX", "MIN", "AVG", "SUM":
			if len(call.Args) != 1 {
				bad = fmt.Errorf("optimize: %s needs exactly one argument", call.Name)
				return
			}
			inner, ok := call.Args[0].(sqlparser.FuncCall)
			if !ok {
				bad = fmt.Errorf("optimize: %s must wrap EXPECT/EXPECT_STDDEV/PROB", call.Name)
				return
			}
			col, err := innerColumn(inner)
			if err != nil {
				bad = err
				return
			}
			key := call.SQL()
			if !seen[key] {
				seen[key] = true
				terms = append(terms, aggTerm{sql: key, outer: call.Name, inner: inner.Name, column: col})
			}
		case "EXPECT", "EXPECT_STDDEV", "PROB":
			// Bare inner aggregate: only meaningful when there is no free
			// sweep (every parameter grouped) — otherwise it is ambiguous.
			// Nested occurrences under an outer aggregate are handled
			// above; we must not double-report them, so check via seen on
			// the enclosing walk below.
			key := call.SQL()
			if enclosed(where, call) {
				return
			}
			if freeCount > 0 {
				bad = fmt.Errorf("optimize: bare %s over a free parameter sweep is ambiguous; wrap it in MAX/MIN/AVG/SUM", call.Name)
				return
			}
			col, err := innerColumn(call)
			if err != nil {
				bad = err
				return
			}
			if !seen[key] {
				seen[key] = true
				terms = append(terms, aggTerm{sql: key, inner: call.Name, column: col})
			}
		}
	})
	if bad != nil {
		return nil, bad
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("optimize: constraint has no aggregate terms")
	}
	return terms, nil
}

func innerColumn(call sqlparser.FuncCall) (string, error) {
	if len(call.Args) != 1 {
		return "", fmt.Errorf("optimize: %s needs exactly one column argument", call.Name)
	}
	col, ok := call.Args[0].(sqlparser.ColumnRef)
	if !ok {
		return "", fmt.Errorf("optimize: %s must name an output column directly", call.Name)
	}
	return col.Name, nil
}

// enclosed reports whether target appears inside an outer MAX/MIN/AVG/SUM
// call somewhere in root.
func enclosed(root sqlparser.Expr, target sqlparser.FuncCall) bool {
	targetSQL := target.SQL()
	found := false
	sqlparser.WalkExpr(root, func(e sqlparser.Expr) {
		call, ok := e.(sqlparser.FuncCall)
		if !ok || found {
			return
		}
		switch call.Name {
		case "MAX", "MIN", "AVG", "SUM":
			if len(call.Args) == 1 && call.Args[0].SQL() == targetSQL {
				found = true
			}
		}
	})
	return found
}

// Run explores the full parameter space and returns the optimization
// outcome. Each group's free sweep is evaluated as one batch, so over a
// shard runner a group costs one call per world range. The context is
// checked before every evaluated point (and per world-batch inside the
// Monte Carlo executor), so cancelling mid-sweep
// stops within milliseconds; the reuse engine keeps whatever the aborted
// sweep already computed, ready for a resumed run.
func Run(ctx context.Context, scn *scenario.Scenario, opts Options) (*Result, error) {
	if scn.Optimize == nil {
		return nil, fmt.Errorf("optimize: scenario has no OPTIMIZE statement")
	}
	opt := scn.Optimize
	start := time.Now()

	groupNames := opt.GroupBy
	if len(groupNames) == 0 {
		groupNames = opt.Select
	}
	isGroup := map[string]bool{}
	for _, g := range groupNames {
		isGroup[g] = true
	}
	var groupDefs, freeDefs []guide.ParamDef
	var freeNames []string
	for _, def := range scn.Space.Params {
		if isGroup[def.Name] {
			groupDefs = append(groupDefs, def)
		} else {
			freeDefs = append(freeDefs, def)
			freeNames = append(freeNames, def.Name)
		}
	}
	if len(groupDefs) != len(groupNames) {
		return nil, fmt.Errorf("optimize: GROUP BY names a parameter more than once or not at all")
	}
	groupSpace, err := guide.NewSpace(groupDefs)
	if err != nil {
		return nil, err
	}
	var freePoints []guide.Point
	if len(freeDefs) == 0 {
		freePoints = []guide.Point{{}}
	} else {
		freeSpace, err := guide.NewSpace(freeDefs)
		if err != nil {
			return nil, err
		}
		freePoints = freeSpace.Points()
	}

	terms, err := extractTerms(opt.Where, len(freeDefs))
	if err != nil {
		return nil, err
	}
	constraint, err := constraintPlan(opt.Where)
	if err != nil {
		return nil, err
	}

	// The evaluator aggregates only the columns the constraint reads.
	ev := mc.NewEvaluator(scn, opts.MC)
	columns := make([]string, len(terms))
	for i, term := range terms {
		columns[i] = term.column
	}
	ev.Reads(columns...)
	res := &Result{GroupParams: groupNames, FreeParams: freeNames, GroupsTotal: groupSpace.Size()}

	groups := groupSpace.Points()
	total := len(groups) * len(freePoints)
	for _, group := range groups {
		// The group's free sweep is one batch.
		batch := make([]guide.Point, len(freePoints))
		for i, free := range freePoints {
			pt := make(guide.Point, len(group)+len(free))
			for k, v := range group {
				pt[k] = v
			}
			for k, v := range free {
				pt[k] = v
			}
			batch[i] = pt
		}
		prs, err := ev.EvaluatePoints(ctx, batch)
		if err != nil {
			return nil, err
		}
		// Per-term vector across the free sweep.
		vectors := make(map[string][]float64, len(terms))
		for i, pr := range prs {
			res.PointsEvaluated++
			if opts.Progress != nil {
				opts.Progress(res.PointsEvaluated, total, batch[i], pr)
			}
			for _, term := range terms {
				cs, ok := pr.Sketches[term.column]
				if !ok {
					return nil, fmt.Errorf("optimize: constraint references column %q the query did not produce", term.column)
				}
				v, err := cs.Metric(term.inner)
				if err != nil {
					return nil, err
				}
				vectors[term.sql] = append(vectors[term.sql], v)
			}
		}

		row := GroupRow{Group: group, Metrics: make(map[string]float64, len(terms))}
		for _, term := range terms {
			vec := vectors[term.sql]
			var folded float64
			switch term.outer {
			case "MAX":
				folded = vec[0]
				for _, x := range vec[1:] {
					if x > folded {
						folded = x
					}
				}
			case "MIN":
				folded = vec[0]
				for _, x := range vec[1:] {
					if x < folded {
						folded = x
					}
				}
			case "AVG":
				for _, x := range vec {
					folded += x
				}
				folded /= float64(len(vec))
			case "SUM":
				for _, x := range vec {
					folded += x
				}
			case "":
				folded = vec[0]
			}
			row.Metrics[term.sql] = folded
		}

		feasible, err := evalConstraintPlan(constraint, row.Metrics, group)
		if err != nil {
			return nil, err
		}
		row.Feasible = feasible
		res.Rows = append(res.Rows, row)
	}

	res.Best, err = selectBest(res.Rows, opt.Goals)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// evalConstraintPlan evaluates a compiled constraint for one group: the
// folded aggregate terms, by their SQL, and the group's parameter values
// are the plan's parameters.
func evalConstraintPlan(plan *sqlengine.Plan, metrics map[string]float64, group guide.Point) (bool, error) {
	params := make(map[string]value.Value, len(metrics)+len(group))
	for name, v := range group {
		params[name] = v
	}
	for term, v := range metrics {
		params[term] = value.Float(v)
	}
	res, err := plan.ExecCounted(nil, params, nil)
	if err != nil {
		return false, fmt.Errorf("optimize: evaluating constraint: %w", err)
	}
	defer res.Release()
	return res.Columns[0].Value(0).Truthy(), nil
}

// constraintPlan compiles the constraint to a Plan with no FROM. Each
// aggregate term becomes the parameter its SQL names, and each bare column
// reference the parameter it names, so constraints may mention @params or
// bare group columns (the paper writes GROUP BY feature, purchase1
// without @).
func constraintPlan(where sqlparser.Expr) (*sqlengine.Plan, error) {
	terms, err := extractTerms(where, 0)
	if err != nil {
		return nil, err
	}
	isTerm := make(map[string]bool, len(terms))
	for _, t := range terms {
		isTerm[t.sql] = true
	}
	// Terms first: the rewrite runs bottom-up, and a term's SQL names its
	// column.
	x, _ := sqlparser.RewriteExpr(where, func(e sqlparser.Expr) (sqlparser.Expr, error) {
		if n, ok := e.(sqlparser.FuncCall); ok && isTerm[n.SQL()] {
			return sqlparser.ParamRef{Name: n.SQL()}, nil
		}
		return e, nil
	})
	x, _ = sqlparser.RewriteExpr(x, func(e sqlparser.Expr) (sqlparser.Expr, error) {
		if n, ok := e.(sqlparser.ColumnRef); ok && n.Table == "" {
			return sqlparser.ParamRef{Name: n.Name}, nil
		}
		return e, nil
	})
	if sqlengine.HasAggregate(x) {
		return nil, fmt.Errorf("optimize: constraint %s has an aggregate outside its terms", where.SQL())
	}
	return sqlengine.CompileSelect(sqlparser.Select{Items: []sqlparser.SelectItem{{Expr: x}}, Limit: -1}), nil
}

// selectBest returns the lexicographic optimum among feasible rows under
// the FOR goals; ties across all goals are all returned.
func selectBest(rows []GroupRow, goals []sqlparser.Goal) ([]GroupRow, error) {
	var feasible []GroupRow
	for _, r := range rows {
		if r.Feasible {
			feasible = append(feasible, r)
		}
	}
	if len(feasible) == 0 {
		return nil, nil
	}
	key := func(r GroupRow) ([]float64, error) {
		out := make([]float64, len(goals))
		for i, g := range goals {
			v, ok := r.Group[g.Param]
			if !ok {
				return nil, fmt.Errorf("optimize: goal @%s is not a grouped parameter", g.Param)
			}
			f, err := v.AsFloat()
			if err != nil {
				return nil, fmt.Errorf("optimize: goal @%s is not numeric: %w", g.Param, err)
			}
			if g.Maximize {
				out[i] = -f // sort ascending on negated value
			} else {
				out[i] = f
			}
		}
		return out, nil
	}
	keys := make([][]float64, len(feasible))
	for i, r := range feasible {
		k, err := key(r)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	order := make([]int, len(feasible))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})
	bestKey := keys[order[0]]
	var best []GroupRow
	for _, idx := range order {
		equal := true
		for i := range bestKey {
			if keys[idx][i] != bestKey[i] {
				equal = false
				break
			}
		}
		if !equal {
			break
		}
		best = append(best, feasible[idx])
	}
	return best, nil
}
