package sqlengine

// ExecCounters collects per-operator statistics from a single plan
// execution: relation cardinalities through each kernel, the join
// strategy bindFrom actually took, and per-phase wall time. Pass one to
// Plan.ExecCounted; a nil *ExecCounters records nothing and the execution
// path performs no time measurements at all, so the untraced hot path is
// unchanged.
//
// Counters are owned by one execution — they are written without
// synchronization.
type ExecCounters struct {
	// Relation flow.
	RowsIn   int64 // rows in the materialized FROM relation
	WhereIn  int64 // rows entering the WHERE kernel (0 when no WHERE)
	WhereOut int64 // rows surviving WHERE
	RowsOut  int64 // result rows handed back

	// Join strategy bindFrom chose for the last table of a multi-table
	// FROM: "" (none/single table), "cross", "hash", "interpreted" (the
	// general theta join).
	JoinKind  string
	BuildRows int64 // that join's right-side (build) rows
	ProbeRows int64 // that join's left-side (probe) rows

	Grouped bool

	// Phase wall time in nanoseconds. Measured only on counted runs.
	BindNS  int64 // FROM bind + relation materialization (includes joins)
	WhereNS int64 // WHERE kernel + selection build
	EvalNS  int64 // item kernels and post-operators / grouped executor
}
