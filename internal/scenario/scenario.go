// Package scenario compiles Fuzzy Prophet scenario scripts into executable
// form: it validates the script, builds the discrete parameter space from
// the DECLARE PARAMETER statements, extracts the VG-Function call sites
// from the query, and prepares the rewritten query the Query Generator
// emits as pure TSQL (paper §2, architecture cycle step 2).
//
// The central transformation mirrors MCDB-style possible-world expansion:
// each VG call in the query becomes a column of a generated __worlds table
// holding one row per Monte Carlo world. The rewritten query — with VG
// calls replaced by column references and parameters replaced by literals —
// is *pure* TSQL over that table, exactly the paper's "The sequence of
// instances is batched and accepted by a Query Generator, which produces a
// pure TSQL query".
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// WorldsTable is the name of the generated possible-worlds table.
const WorldsTable = "__worlds"

// WorldColumn is the name of the world-ordinal column in WorldsTable.
const WorldColumn = "__world"

// Site is one VG-Function call site in the scenario query.
type Site struct {
	// ID uniquely identifies the site within the scenario, e.g.
	// "CapacityModel#1".
	ID string
	// Name is the VG-Function name.
	Name string
	// Args are the argument expressions; they may reference only
	// parameters, literals and scalar builtins.
	Args []sqlparser.Expr
	// Column is the generated worlds-table column the call was rewritten
	// to, e.g. "__vg_1".
	Column string

	// args is SELECT Args[0], …, Args[n-1] compiled once: a Plan with no
	// FROM, evaluated over its one row with the point as parameters.
	args *sqlengine.Plan
}

// ArgValues evaluates the site's argument expressions under a parameter
// point and returns the values together with their canonical key.
func (s *Site) ArgValues(point guide.Point) ([]value.Value, string, error) {
	res, err := s.args.ExecCounted(nil, point, nil)
	if err != nil {
		return nil, "", fmt.Errorf("scenario: site %s arguments: %w", s.ID, err)
	}
	defer res.Release()
	vals := make([]value.Value, len(res.Columns))
	key := append(make([]byte, 0, 32), '(')
	for i, col := range res.Columns {
		vals[i] = col.Value(0)
		if i > 0 {
			key = append(key, ',')
		}
		key = vals[i].AppendSQLLiteral(key)
	}
	return vals, string(append(key, ')')), nil
}

// Scenario is a compiled scenario script.
type Scenario struct {
	// Source is the original script text.
	Source string
	// Script is the parsed form.
	Script *sqlparser.Script
	// Space is the discrete parameter space.
	Space *guide.Space
	// Query is the scenario's SELECT statement as written.
	Query sqlparser.Select
	// Exec is the rewritten query: VG calls replaced by worlds-table
	// columns, FROM extended with the worlds table, INTO stripped.
	Exec sqlparser.Select
	// Sites are the extracted VG call sites, in query order.
	Sites []Site
	// Graph is the online-mode directive, if present.
	Graph *sqlparser.Graph
	// Optimize is the offline-mode directive, if present.
	Optimize *sqlparser.Optimize
	// Registry resolves the scenario's VG-Functions.
	Registry *vg.Registry
	// OutputCols are the query's output column names, in order.
	OutputCols []string
	// PassThrough holds, per output column, the index in Sites of the site
	// whose sample vector the column copies verbatim, or -1 (see
	// passThrough).
	PassThrough []int
	// ResultsTable is the INTO target ("results" in Figure 2), or "".
	ResultsTable string
	// StaticTables are deterministic side tables the query's FROM clause
	// may reference (joined against the generated worlds table). They are
	// installed into every evaluator's catalog.
	StaticTables []*sqlengine.Table

	planOnce sync.Once
	plan     *sqlengine.Plan

	fpMu        sync.Mutex
	fingerprint string // Fingerprint's cached value; "" until computed, reset by AddTable
}

// Fingerprint returns a stable hex identity for the scenario's content: the
// SHA-256 of its script's canonical printed form followed, when the
// scenario has side tables, by a canonical encoding of those tables.
// Scenarios whose scripts differ only in whitespace or comments share a
// fingerprint, and so do table-free scenarios with the fingerprint the
// script alone always had; two scenarios whose tables hold different rows
// do not. Reuse snapshots, the compiled-plan cache, fleet workers'
// scenario caches and the reuse engine's point memo key off it. It is
// computed once and recomputed after AddTable.
func (scn *Scenario) Fingerprint() string {
	scn.fpMu.Lock()
	defer scn.fpMu.Unlock()
	if scn.fingerprint == "" {
		h := sha256.New()
		h.Write([]byte(sqlparser.Print(scn.Script)))
		if len(scn.StaticTables) > 0 {
			h.Write(appendTables([]byte("\x00tables"), scn.StaticTables))
		}
		scn.fingerprint = hex.EncodeToString(h.Sum(nil))
	}
	return scn.fingerprint
}

// appendTables appends a canonical encoding of tables to dst: tables in
// name order, each its length-prefixed name, column names and rows, every
// value as its kind and its exact literal, so two tables encode alike only
// when they hold the same values of the same kinds.
func appendTables(dst []byte, tables []*sqlengine.Table) []byte {
	sorted := append([]*sqlengine.Table(nil), tables...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, t := range sorted {
		dst = value.AppendStringKey(dst, t.Name)
		dst = strconv.AppendInt(dst, int64(len(t.Cols)), 10)
		for _, c := range t.Cols {
			dst = value.AppendStringKey(dst, c)
		}
		dst = strconv.AppendInt(dst, int64(len(t.Rows)), 10)
		for _, row := range t.Rows {
			for _, v := range row {
				dst = append(dst, byte(v.Kind()))
				dst = value.AppendStringKey(dst, v.String())
			}
		}
	}
	return dst
}

// planCache shares compiled plans between scenarios with identical
// content: when fpserver re-registers a scenario (same script, fresh
// *Scenario), the new registration picks up the already-warm plan, like
// the reuse cache does for basis vectors. Keyed by the script fingerprint
// PLUS the rewritten execution query — two registries could rewrite the
// same script differently (different VG-function sets), and plans are
// only interchangeable when the rewritten tree matches.
var planCache = struct {
	mu    sync.Mutex
	plans map[string]*sqlengine.Plan
	order []string
}{plans: map[string]*sqlengine.Plan{}}

// planCacheMax bounds the cache; beyond it the oldest entry is dropped
// (plans are cheap to recompile — the cache exists for warm buffer pools).
const planCacheMax = 512

// Plan returns the scenario's compiled execution plan: the rewritten query
// (VG calls already column references) compiled once into a reusable
// plan. The plan is safe for concurrent execution; every evaluator and
// session of the scenario shares it, so slider moves and concurrent
// renders reuse its warmed buffer pools. Parameters are bound at execution
// time, which is semantically identical to executing the Query Generator's
// literal-substituted TSQL.
func (scn *Scenario) Plan() *sqlengine.Plan {
	scn.planOnce.Do(func() {
		key := scn.Fingerprint() + "|" + scn.Exec.SQL()
		planCache.mu.Lock()
		defer planCache.mu.Unlock()
		if p, ok := planCache.plans[key]; ok {
			scn.plan = p
			return
		}
		p := sqlengine.CompileSelect(scn.Exec)
		if len(planCache.order) >= planCacheMax {
			oldest := planCache.order[0]
			planCache.order = planCache.order[1:]
			delete(planCache.plans, oldest)
		}
		planCache.plans[key] = p
		planCache.order = append(planCache.order, key)
		scn.plan = p
	})
	return scn.plan
}

// AddTable attaches a deterministic side table the scenario query may
// reference in its FROM clause. The name must not collide with the
// generated worlds table or a previously added table.
func (scn *Scenario) AddTable(t *sqlengine.Table) error {
	if t == nil {
		return fmt.Errorf("scenario: nil table")
	}
	if t.Name == WorldsTable {
		return fmt.Errorf("scenario: table name %q is reserved", WorldsTable)
	}
	for _, existing := range scn.StaticTables {
		if existing.Name == t.Name {
			return fmt.Errorf("scenario: table %q already added", t.Name)
		}
	}
	scn.StaticTables = append(scn.StaticTables, t)
	scn.fpMu.Lock()
	scn.fingerprint = ""
	scn.fpMu.Unlock()
	return nil
}

// Compile parses and validates src against the registry.
func Compile(src string, registry *vg.Registry) (*Scenario, error) {
	if registry == nil {
		return nil, fmt.Errorf("scenario: nil VG registry")
	}
	script, err := sqlparser.Parse(src)
	if err != nil {
		return nil, err
	}
	scn := &Scenario{Source: src, Script: script, Registry: registry}

	var defs []guide.ParamDef
	seenQuery := false
	for _, st := range script.Statements {
		switch n := st.(type) {
		case sqlparser.DeclareParameter:
			vals := n.Space.Values()
			if len(vals) == 0 {
				return nil, fmt.Errorf("scenario: parameter @%s has an empty space", n.Name)
			}
			defs = append(defs, guide.ParamDef{Name: n.Name, Values: vals})
		case sqlparser.Select:
			if seenQuery {
				return nil, fmt.Errorf("scenario: multiple SELECT statements; a scenario has exactly one query")
			}
			seenQuery = true
			scn.Query = n
			scn.ResultsTable = n.Into
		case sqlparser.Graph:
			if scn.Graph != nil {
				return nil, fmt.Errorf("scenario: multiple GRAPH statements")
			}
			g := n
			scn.Graph = &g
		case sqlparser.Optimize:
			if scn.Optimize != nil {
				return nil, fmt.Errorf("scenario: multiple OPTIMIZE statements")
			}
			o := n
			scn.Optimize = &o
		}
	}
	if !seenQuery {
		return nil, fmt.Errorf("scenario: no SELECT statement")
	}
	space, err := guide.NewSpace(defs)
	if err != nil {
		return nil, err
	}
	scn.Space = space

	if err := scn.extractSites(); err != nil {
		return nil, err
	}
	if err := scn.validate(); err != nil {
		return nil, err
	}
	return scn, nil
}

// extractSites rewrites the query, pulling VG calls out into sites.
func (scn *Scenario) extractSites() error {
	// Pre-pass: validate every VG call's arguments on the *original* tree,
	// before rewriting obscures nesting.
	preValidate := func(e sqlparser.Expr) error {
		var bad error
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
			if bad != nil {
				return
			}
			call, ok := x.(sqlparser.FuncCall)
			if !ok {
				return
			}
			fn, isVG := scn.Registry.Lookup(call.Name)
			if !isVG {
				return
			}
			if fn.Arity() >= 0 && len(call.Args) != fn.Arity() {
				bad = fmt.Errorf("scenario: %s expects %d arguments, got %d", call.Name, fn.Arity(), len(call.Args))
				return
			}
			for _, a := range call.Args {
				if err := validateSiteArg(a, scn.Registry); err != nil {
					bad = fmt.Errorf("scenario: %s argument: %w", call.Name, err)
					return
				}
			}
		})
		return bad
	}
	for _, item := range scn.Query.Items {
		if err := preValidate(item.Expr); err != nil {
			return err
		}
	}
	if scn.Query.Where != nil {
		if err := preValidate(scn.Query.Where); err != nil {
			return err
		}
	}
	for _, g := range scn.Query.GroupBy {
		if err := preValidate(g); err != nil {
			return err
		}
	}
	if scn.Query.Having != nil {
		if err := preValidate(scn.Query.Having); err != nil {
			return err
		}
	}

	bySQL := map[string]*Site{}
	counts := map[string]int{}
	rewrite := func(e sqlparser.Expr) (sqlparser.Expr, error) {
		call, ok := e.(sqlparser.FuncCall)
		if !ok {
			return e, nil
		}
		if _, isVG := scn.Registry.Lookup(call.Name); !isVG {
			return e, nil
		}
		key := call.SQL()
		if s, ok := bySQL[key]; ok {
			return sqlparser.ColumnRef{Name: s.Column}, nil
		}
		ord := counts[call.Name]
		counts[call.Name]++
		items := make([]sqlparser.SelectItem, len(call.Args))
		for i, a := range call.Args {
			items[i] = sqlparser.SelectItem{Expr: a}
		}
		site := &Site{
			ID:     fmt.Sprintf("%s#%d", call.Name, ord),
			Name:   call.Name,
			Args:   call.Args,
			Column: fmt.Sprintf("__vg_%d", len(scn.Sites)),
			args:   sqlengine.CompileSelect(sqlparser.Select{Items: items, Limit: -1}),
		}
		bySQL[key] = site
		scn.Sites = append(scn.Sites, *site)
		return sqlparser.ColumnRef{Name: site.Column}, nil
	}

	ex := scn.Query
	ex.Into = ""
	items := make([]sqlparser.SelectItem, len(ex.Items))
	for i, item := range ex.Items {
		re, err := sqlparser.RewriteExpr(item.Expr, rewrite)
		if err != nil {
			return err
		}
		items[i] = sqlparser.SelectItem{Expr: re, Alias: item.Alias}
	}
	ex.Items = items
	if ex.Where != nil {
		re, err := sqlparser.RewriteExpr(ex.Where, rewrite)
		if err != nil {
			return err
		}
		ex.Where = re
	}
	groupBy := make([]sqlparser.Expr, len(ex.GroupBy))
	for i, g := range ex.GroupBy {
		re, err := sqlparser.RewriteExpr(g, rewrite)
		if err != nil {
			return err
		}
		groupBy[i] = re
	}
	if len(groupBy) == 0 {
		groupBy = nil
	}
	ex.GroupBy = groupBy
	if ex.Having != nil {
		re, err := sqlparser.RewriteExpr(ex.Having, rewrite)
		if err != nil {
			return err
		}
		ex.Having = re
	}
	// Prepend the worlds table to FROM.
	from := []sqlparser.TableRef{{Name: WorldsTable}}
	from = append(from, ex.From...)
	ex.From = from
	scn.Exec = ex

	for i, item := range scn.Query.Items {
		scn.OutputCols = append(scn.OutputCols, outputName(item, i))
	}
	scn.PassThrough = passThrough(ex, scn.Sites, scn.OutputCols)
	return nil
}

// passThrough finds the output columns of the rewritten query ex that copy
// a site's vector verbatim: column i passes through site s when its item is
// exactly s's worlds-table column and the query keeps every worlds row
// once, in world order — FROM is the worlds table alone, with no WHERE,
// GROUP BY, HAVING, DISTINCT, ORDER BY, LIMIT or aggregate. A name two
// output columns share passes nothing through, as results are keyed by
// name. It returns one site index or -1 per item.
func passThrough(ex sqlparser.Select, sites []Site, names []string) []int {
	out := make([]int, len(ex.Items))
	for i := range out {
		out[i] = -1
	}
	if len(ex.From) != 1 || ex.Where != nil || len(ex.GroupBy) > 0 || ex.Having != nil ||
		ex.Distinct || len(ex.OrderBy) > 0 || ex.Limit >= 0 {
		return out
	}
	for _, item := range ex.Items {
		if sqlengine.HasAggregate(item.Expr) {
			return out
		}
	}
	uses := make(map[string]int, len(names))
	for _, n := range names {
		uses[n]++
	}
	for i, item := range ex.Items {
		ref, ok := item.Expr.(sqlparser.ColumnRef)
		if !ok || ref != (sqlparser.ColumnRef{Name: ref.Name}) || uses[names[i]] > 1 {
			continue
		}
		for si := range sites {
			if sites[si].Column == ref.Name {
				out[i] = si
			}
		}
	}
	return out
}

func outputName(item sqlparser.SelectItem, idx int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := item.Expr.(sqlparser.ColumnRef); ok {
		return c.Name
	}
	return fmt.Sprintf("col%d", idx+1)
}

// validateSiteArg enforces that VG arguments are deterministic given the
// parameter point: parameters, literals and scalar builtins only.
func validateSiteArg(e sqlparser.Expr, registry *vg.Registry) error {
	if sqlengine.HasAggregate(e) {
		return fmt.Errorf("aggregate in %s not allowed (arguments must depend only on parameters)", e.SQL())
	}
	var bad error
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		if bad != nil {
			return
		}
		switch n := x.(type) {
		case sqlparser.FuncCall:
			if _, isVG := registry.Lookup(n.Name); isVG {
				bad = fmt.Errorf("nested VG-Function call %s not allowed", n.Name)
			}
		case sqlparser.ColumnRef:
			bad = fmt.Errorf("column reference %s not allowed (arguments must depend only on parameters)", n.SQL())
		}
	})
	return bad
}

// validate checks the cross-statement references.
func (scn *Scenario) validate() error {
	declared := map[string]bool{}
	for _, p := range scn.Space.Params {
		declared[p.Name] = true
	}
	// Every parameter referenced in the query must be declared.
	var undeclared error
	checkParams := func(e sqlparser.Expr) {
		for _, name := range sqlparser.Params(e) {
			if !declared[name] && undeclared == nil {
				undeclared = fmt.Errorf("scenario: parameter @%s is not declared", name)
			}
		}
	}
	for _, item := range scn.Query.Items {
		checkParams(item.Expr)
	}
	if scn.Query.Where != nil {
		checkParams(scn.Query.Where)
	}
	for _, g := range scn.Query.GroupBy {
		checkParams(g)
	}
	if undeclared != nil {
		return undeclared
	}
	// The per-world query must be world-wise: aggregation happens in the
	// GRAPH/OPTIMIZE layer, not inside the scenario query.
	for _, item := range scn.Query.Items {
		if sqlengine.HasAggregate(item.Expr) {
			return fmt.Errorf("scenario: aggregate in scenario query item %q; aggregation belongs to GRAPH/OPTIMIZE", outputNameOf(item))
		}
	}

	outputs := map[string]bool{}
	for _, c := range scn.OutputCols {
		outputs[c] = true
	}
	if scn.Graph != nil {
		if !declared[scn.Graph.Over] {
			return fmt.Errorf("scenario: GRAPH OVER @%s references an undeclared parameter", scn.Graph.Over)
		}
		for _, item := range scn.Graph.Items {
			if !outputs[item.Column] {
				return fmt.Errorf("scenario: GRAPH item %s %s references a column the query does not produce", item.Agg, item.Column)
			}
		}
	}
	if scn.Optimize != nil {
		o := scn.Optimize
		if scn.ResultsTable != "" && o.From != scn.ResultsTable {
			return fmt.Errorf("scenario: OPTIMIZE reads from %q but the query materializes INTO %q", o.From, scn.ResultsTable)
		}
		for _, p := range o.Select {
			if !declared[p] {
				return fmt.Errorf("scenario: OPTIMIZE SELECT @%s references an undeclared parameter", p)
			}
		}
		for _, g := range o.GroupBy {
			if !declared[g] {
				return fmt.Errorf("scenario: OPTIMIZE GROUP BY %s must name a declared parameter", g)
			}
		}
		if len(o.Goals) == 0 {
			return fmt.Errorf("scenario: OPTIMIZE needs at least one FOR goal")
		}
		for _, g := range o.Goals {
			if !declared[g.Param] {
				return fmt.Errorf("scenario: OPTIMIZE goal @%s references an undeclared parameter", g.Param)
			}
		}
		if o.Where == nil {
			return fmt.Errorf("scenario: OPTIMIZE needs a WHERE feasibility constraint")
		}
		if err := validateConstraint(o.Where, outputs); err != nil {
			return err
		}
	}
	return nil
}

func outputNameOf(item sqlparser.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	return item.Expr.SQL()
}

// validateConstraint checks an OPTIMIZE WHERE expression: the probabilistic
// aggregates inside must reference produced output columns.
func validateConstraint(e sqlparser.Expr, outputs map[string]bool) error {
	var bad error
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		if bad != nil {
			return
		}
		f, ok := x.(sqlparser.FuncCall)
		if !ok {
			return
		}
		switch f.Name {
		case "EXPECT", "EXPECT_STDDEV", "PROB":
			if len(f.Args) != 1 {
				bad = fmt.Errorf("scenario: %s in OPTIMIZE WHERE needs one column argument", f.Name)
				return
			}
			c, ok := f.Args[0].(sqlparser.ColumnRef)
			if !ok {
				bad = fmt.Errorf("scenario: %s in OPTIMIZE WHERE must name an output column directly", f.Name)
				return
			}
			if !outputs[c.Name] {
				bad = fmt.Errorf("scenario: OPTIMIZE WHERE references column %q the query does not produce", c.Name)
			}
		}
	})
	return bad
}

// GenerateSQL is the Query Generator: it renders the rewritten query for a
// concrete parameter point as pure TSQL — parameters substituted as
// literals, VG calls already column references. The result parses with
// sqlparser and executes on any engine holding the worlds table.
func (scn *Scenario) GenerateSQL(point guide.Point) (string, error) {
	substitute := func(e sqlparser.Expr) (sqlparser.Expr, error) {
		p, ok := e.(sqlparser.ParamRef)
		if !ok {
			return e, nil
		}
		v, ok := point[p.Name]
		if !ok {
			return nil, fmt.Errorf("scenario: point is missing parameter @%s", p.Name)
		}
		return sqlparser.Literal{Val: v}, nil
	}
	ex := scn.Exec
	items := make([]sqlparser.SelectItem, len(ex.Items))
	for i, item := range ex.Items {
		re, err := sqlparser.RewriteExpr(item.Expr, substitute)
		if err != nil {
			return "", err
		}
		items[i] = sqlparser.SelectItem{Expr: re, Alias: item.Alias}
	}
	ex.Items = items
	if ex.Where != nil {
		re, err := sqlparser.RewriteExpr(ex.Where, substitute)
		if err != nil {
			return "", err
		}
		ex.Where = re
	}
	if len(ex.GroupBy) > 0 {
		groupBy := make([]sqlparser.Expr, len(ex.GroupBy))
		for i, g := range ex.GroupBy {
			re, err := sqlparser.RewriteExpr(g, substitute)
			if err != nil {
				return "", err
			}
			groupBy[i] = re
		}
		ex.GroupBy = groupBy
	}
	if ex.Having != nil {
		re, err := sqlparser.RewriteExpr(ex.Having, substitute)
		if err != nil {
			return "", err
		}
		ex.Having = re
	}
	return ex.SQL(), nil
}

// DefaultPoint returns the parameter point using each parameter's first
// declared value (the online mode's initial slider positions).
func (scn *Scenario) DefaultPoint() guide.Point {
	p := make(guide.Point, len(scn.Space.Params))
	for _, def := range scn.Space.Params {
		p[def.Name] = def.Values[0]
	}
	return p
}
