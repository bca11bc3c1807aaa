// Package scenarios holds the benchmark's own copies of the two example
// scenarios it drives. They are copies on purpose: a later change to the
// bundled examples must not silently change what the benchmark measures.
//
// quickstart is left out because its OrderVolume VG is not registered in
// the real fpserver; pricing has no GRAPH clause, so it cannot back a
// session.
package scenarios

import _ "embed"

// CapacityPlanning is the paper's demonstration scenario (Figure 2): a
// 53-week axis and a 7 x 7 x 3 grid of slider positions.
//
//go:embed capacityplanning.fp
var CapacityPlanning string

// ServerFleet cross-joins the worlds with the Regions dimension table.
//
//go:embed serverfleet.fp
var ServerFleet string

// Regions is the serverfleet example's static dimension table.
var (
	RegionsColumns = []string{"region", "share", "local_capacity"}
	RegionsRows    = [][]any{
		{"us-east", 0.40, 21000.0},
		{"us-west", 0.25, 16500.0},
		{"europe", 0.20, 14000.0},
		{"asia", 0.15, 11500.0},
	}
)
