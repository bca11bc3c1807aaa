package fuzzyprophet

import (
	"context"
	"sync"

	"fuzzyprophet/internal/guide"
	"fuzzyprophet/internal/mc"
)

// ShardWorker serves shard evaluations for ONE scenario with a freelist of
// warmed evaluators — the worker half of wire protocol v4's per-fingerprint
// evaluator pool, and the one worker entry point (Scenario.EvaluateShard is
// a one-call wrapper around a fresh ShardWorker). Building an evaluator
// repays the worlds-table and range-env warm-up; a ShardWorker instead
// checks an evaluator out of its pool, retargets it at the request's
// (worlds, seed, sketch mode) via a cheap reconfigure, evaluates every
// point of the request on it, and returns it after the render, so
// steady-state shard serving allocates nothing per request beyond the
// response itself. A coordinator sends a worker the same world range at
// every batch of a sweep, so the pooled evaluator's series chains stay
// warm too: each world's chain is simulated once per sweep, and its base
// (CapacityModel's failure schedule) once per range and seed base, so a
// batch at a new purchase pair replays only overlays.
//
// A ShardWorker is safe for concurrent use: concurrent requests each check
// out their own evaluator (the pool grows to peak concurrency and is
// reused thereafter). Each request's shard is evaluated as one range, whose
// simulation spreads across GOMAXPROCS cores; reuse is always disabled
// (partial vectors are not valid bases).
type ShardWorker struct {
	scn  *Scenario
	opts mc.Options

	mu   sync.Mutex
	free []*mc.Evaluator
}

// NewShardWorker returns a shard-serving evaluator pool for the scenario.
// The scenario's query must be shardable for requests to succeed (the
// check happens per call).
func (sc *Scenario) NewShardWorker() (*ShardWorker, error) {
	return sc.newShardWorker(evalConfig{})
}

func (sc *Scenario) newShardWorker(cfg evalConfig) (*ShardWorker, error) {
	cfg.disableReuse = true // shard evaluation never consults reuse
	mcOpts, err := cfg.mcOptions()
	if err != nil {
		return nil, err
	}
	mcOpts.Runner = nil // a worker never re-fans out
	return &ShardWorker{scn: sc, opts: mcOpts}, nil
}

// EvaluateShard evaluates the worlds in shard (within [0, worlds)) at each
// parameter point, in order, against one pooled evaluator (zero worlds or
// seed take the engine defaults), and returns one result per point. The
// points share the evaluator's series chains, so a sweep's consecutive
// points re-simulate nothing; the context is checked before every point.
// Each result carries the shard's sample vectors, or with sketchOnly set
// one sketch per column instead — the compressed response mode.
func (w *ShardWorker) EvaluateShard(ctx context.Context, points []map[string]any, worlds int, seed uint64, shard WorldShard, sketchOnly bool) ([]*ShardResult, error) {
	pts := make([]guide.Point, len(points))
	for i, point := range points {
		var err error
		if pts[i], err = w.scn.toDeclaredPoint(point); err != nil {
			return nil, err
		}
	}
	ev := w.checkout()
	ev.Reconfigure(worlds, seed, sketchOnly)
	results, err := ev.EvaluateShard(ctx, pts, mc.WorldRange{Lo: shard.Lo, Hi: shard.Hi})
	if err != nil {
		// Discard the evaluator: after a failure — especially a recovered
		// panic mid-kernel — its pooled shard envs may hold inconsistent
		// state, and a fresh evaluator is cheap next to serving wrong
		// worlds. The freelist refills from successful requests.
		return nil, err
	}
	w.checkin(ev)
	return results, nil
}

func (w *ShardWorker) checkout() *mc.Evaluator {
	w.mu.Lock()
	if n := len(w.free); n > 0 {
		ev := w.free[n-1]
		w.free = w.free[:n-1]
		w.mu.Unlock()
		return ev
	}
	w.mu.Unlock()
	return mc.NewEvaluator(w.scn.scn, w.opts)
}

func (w *ShardWorker) checkin(ev *mc.Evaluator) {
	w.mu.Lock()
	w.free = append(w.free, ev)
	w.mu.Unlock()
}
