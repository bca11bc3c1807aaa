package sqlparser

import (
	"embed"
	"io/fs"
	"path"
	"sort"
	"strings"
)

// The five example scenarios double as the parser's fuzz corpus and the
// engine's and mc's differential-test fixtures, so they are embedded and
// exported here rather than read from testdata by each consumer.
//
//go:embed testdata/scenarios/*.fp
var scenarioFS embed.FS

// ExampleScenarios returns the bundled example scenario scripts, keyed by
// name (file basename without the .fp extension): capacityplanning,
// featurerelease, pricing, quickstart, serverfleet.
func ExampleScenarios() map[string]string {
	out := map[string]string{}
	entries, err := fs.Glob(scenarioFS, "testdata/scenarios/*.fp")
	if err != nil {
		return out
	}
	for _, p := range entries {
		src, err := scenarioFS.ReadFile(p)
		if err != nil {
			continue
		}
		name := strings.TrimSuffix(path.Base(p), ".fp")
		out[name] = string(src)
	}
	return out
}

// ExampleScenarioNames returns the bundled scenario names, sorted.
func ExampleScenarioNames() []string {
	m := ExampleScenarios()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
