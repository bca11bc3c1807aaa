// Package benchfix holds the shared fixtures for compiling the five
// bundled example scenarios outside their example programs: the VG
// registry (demo models plus the quickstart's OrderVolume) and the
// serverfleet dimension table. The engine differential/benchmark tests
// (internal/sqlengine) and the mc shard and trace tests build their
// workloads from here, so they always exercise the same scenarios.
package benchfix

import (
	"fuzzyprophet/internal/models"
	"fuzzyprophet/internal/rng"
	"fuzzyprophet/internal/sqlengine"
	"fuzzyprophet/internal/value"
	"fuzzyprophet/internal/vg"
)

// Registry returns a VG registry able to compile every bundled example
// scenario: the standard distributions, the demo models, and a stand-in
// OrderVolume (the quickstart example registers its own at runtime).
func Registry() (*vg.Registry, error) {
	reg := vg.NewRegistry()
	if err := vg.RegisterBuiltins(reg); err != nil {
		return nil, err
	}
	if err := models.RegisterDefaults(reg); err != nil {
		return nil, err
	}
	err := reg.Register(vg.NewFunc("OrderVolume", 2, func(seed uint64, args []value.Value) (value.Value, error) {
		week, _ := args[0].AsFloat()
		budget, _ := args[1].AsFloat()
		src := rng.New(seed)
		return value.Float(float64(src.Poisson(1800+40*week+2*budget)) * (1 + 0.05*src.Norm())), nil
	}))
	if err != nil {
		return nil, err
	}
	return reg, nil
}

// RegionsTable returns the serverfleet example's static dimension table.
func RegionsTable() (*sqlengine.Table, error) {
	return sqlengine.NewTable("regions",
		[]string{"region", "share", "local_capacity"},
		[][]value.Value{
			{value.Str("us-east"), value.Float(0.40), value.Float(21000)},
			{value.Str("us-west"), value.Float(0.25), value.Float(16500)},
			{value.Str("europe"), value.Float(0.20), value.Float(14000)},
			{value.Str("asia"), value.Float(0.15), value.Float(11500)},
		})
}
