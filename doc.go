// Package fuzzyprophet is a probabilistic database tool for constructing,
// simulating and analyzing business scenarios with uncertain data — a Go
// reproduction of "Fuzzy Prophet: Parameter Exploration in Uncertain
// Enterprise Scenarios" (Kennedy, Lee, Loboz, Smyl, Nath; SIGMOD 2011).
//
// Scenarios are written in a Transact-SQL dialect with probabilistic
// extensions (see docs/SCENARIO_LANGUAGE.md for the full reference and
// Figure 2 of the paper, reproduced in the README). Stochastic inputs come
// from black-box VG-Functions; Monte Carlo simulation turns a scenario plus
// a parameter point into output distributions. The system's core
// contribution is *fingerprinting*: parameter points whose VG-Function
// outputs are correlated are detected by comparing their outputs at the
// first k world seeds, and already-computed sample sets are re-mapped onto
// new points instead of re-simulated. The effect is interactive-speed
// what-if exploration (online mode) and much cheaper full-space
// optimization (offline mode).
//
// # The shape of the API
//
// A System owns the VG-Function registry (New registers the standard
// distributions; WithDemoModels adds the paper's demonstration models;
// RegisterVG adds your own). System.Compile turns scenario text into an
// immutable Scenario, which offers four evaluation surfaces:
//
//   - Scenario.Evaluate: one parameter point → per-column distribution
//     summaries (mean, stddev, quantiles, CI).
//   - Scenario.EvaluateBatch: many points through one shared reuse engine,
//     so fingerprint remapping amortizes across the batch.
//   - Scenario.OpenSession: the online mode — sliders plus a live graph
//     (Session.SetParam, Session.Render) with reuse across adjustments.
//   - Scenario.Optimize: the offline mode — a full parameter-space sweep
//     with the OPTIMIZE statement's feasibility constraint and
//     lexicographic goals.
//
// Every simulation entry point takes a context.Context first and honors
// cancellation within one world-batch, so a slider adjustment can abort the
// render it supersedes and Ctrl-C stops an offline sweep in milliseconds. A
// Session is safe for concurrent use: sliders are mutex-guarded and renders
// work from a snapshot of the positions they started with.
//
// Under the hood the per-point render executes the Query Generator's
// rewritten query on a columnar engine (internal/sqlengine): Monte Carlo
// worlds are laid out as typed column vectors and aggregated in tight
// unboxed loops. Every query runs as a compiled execution plan — one
// vectorized expression operator writing into pooled, reusable column
// buffers — and each compiled Scenario carries one, shared by all of its
// Sessions, Evaluate/EvaluateBatch calls and Optimize sweeps. Plan caching is entirely transparent to this API: it is
// keyed by Scenario.Fingerprint, so compiling an identical script (or
// re-registering one with fpserver) reuses the warmed plan automatically,
// and no public type or call changes. See docs/ARCHITECTURE.md ("Plan
// compilation & buffer reuse") for the design, and the README's Performance
// section for the measured speedups and allocation counts.
//
// See the examples directory for complete programs, and cmd/fuzzyprophet
// and cmd/fpserver for the CLI and the multi-tenant HTTP service.
package fuzzyprophet
