//go:build race

package online

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count assertions are skipped
// under -race.
const raceEnabled = true
