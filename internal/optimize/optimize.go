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
	// Progress, when non-nil, is called after every evaluated point with
	// running counts — the live view of §3.3's demo.
	Progress func(done, total int, pt guide.Point, res *mc.PointResult)
	// GroupBudget, when positive, explores only that many groups, sampled
	// uniformly without replacement (deterministically from BudgetSeed).
	// The result is then approximate: the true optimum may lie in an
	// unexplored group. Zero means exhaustive.
	GroupBudget int
	// BudgetSeed seeds the budgeted sampling order (default 1).
	BudgetSeed uint64
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
	// PointsEvaluated counts EvaluatePoint calls.
	PointsEvaluated int
	// GroupsTotal is the size of the grouped space; when GroupsExplored is
	// smaller (budgeted run), the result is approximate.
	GroupsTotal    int
	GroupsExplored int
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
// outcome. The context is checked before every evaluated point (and per
// world-batch inside the Monte Carlo executor), so cancelling mid-sweep
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
		freePoints = guide.Collect(guide.NewExhaustive(freeSpace))
	}

	terms, err := extractTerms(opt.Where, len(freeDefs))
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

	var groups []guide.Point
	if opts.GroupBudget > 0 && opts.GroupBudget < groupSpace.Size() {
		seed := opts.BudgetSeed
		if seed == 0 {
			seed = 1
		}
		groups = guide.Collect(guide.NewRandom(groupSpace, opts.GroupBudget, seed))
	} else {
		groups = guide.Collect(guide.NewExhaustive(groupSpace))
	}
	res.GroupsExplored = len(groups)
	total := len(groups) * len(freePoints)
	for _, group := range groups {
		// Per-term vector across the free sweep.
		vectors := make(map[string][]float64, len(terms))
		for _, free := range freePoints {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pt := make(guide.Point, len(group)+len(free))
			for k, v := range group {
				pt[k] = v
			}
			for k, v := range free {
				pt[k] = v
			}
			pr, err := ev.EvaluatePoint(ctx, pt)
			if err != nil {
				return nil, err
			}
			res.PointsEvaluated++
			if opts.Progress != nil {
				opts.Progress(res.PointsEvaluated, total, pt, pr)
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

		feasible, err := evalConstraint(opt.Where, row.Metrics, group)
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

// evalConstraint substitutes the folded aggregate terms (and the group's
// own parameter values, so constraints may mention @params or bare group
// columns) into the WHERE expression and evaluates it.
func evalConstraint(where sqlparser.Expr, metrics map[string]float64, group guide.Point) (bool, error) {
	substituted, err := sqlparser.RewriteExpr(where, func(e sqlparser.Expr) (sqlparser.Expr, error) {
		switch n := e.(type) {
		case sqlparser.FuncCall:
			if v, ok := metrics[n.SQL()]; ok {
				return sqlparser.Literal{Val: value.Float(v)}, nil
			}
		case sqlparser.ColumnRef:
			if n.Table == "" {
				if v, ok := group[n.Name]; ok {
					return sqlparser.Literal{Val: v}, nil
				}
			}
		case sqlparser.ParamRef:
			if v, ok := group[n.Name]; ok {
				return sqlparser.Literal{Val: v}, nil
			}
		}
		return e, nil
	})
	if err != nil {
		return false, err
	}
	v, err := sqlengine.EvalConst(substituted, nil, nil)
	if err != nil {
		return false, fmt.Errorf("optimize: evaluating constraint: %w", err)
	}
	return v.Truthy(), nil
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
