package lint_test

import (
	"testing"

	"fuzzyprophet/internal/lint"
)

// TestFixtures runs every analyzer over its good+bad fixture package under
// testdata/src, checking diagnostics against the `// want` comments — each
// bad line must produce its pinned message, and every good line must stay
// silent. Fixture paths mirror real package paths (internal/mc/...) so
// scoped analyzers are exercised through the driver's path matching.
func TestFixtures(t *testing.T) {
	cases := []struct {
		pkg string
		a   *lint.Analyzer
	}{
		{"internal/mc/determfix", lint.DeterminismAnalyzer},
		{"internal/mc/recoverfix", lint.GoRecoverAnalyzer},
		{"releasefix", lint.ReleaseAnalyzer},
		{"ctxfix", lint.CtxFirstAnalyzer},
		{"atomicfix", lint.AtomicCounterAnalyzer},
		{"shadowfix", lint.ShadowAnalyzer},
		{"unusedfix", lint.UnusedResultAnalyzer},
		{"internal/deadfix", lint.DeadAnalyzer},
		{"optfix", lint.DeadAnalyzer},
	}
	for _, tc := range cases {
		t.Run(tc.a.Name, func(t *testing.T) {
			lint.RunFixture(t, "testdata/src", tc.pkg, tc.a)
		})
	}
}

func TestPathMatches(t *testing.T) {
	cases := []struct {
		pkg, target string
		want        bool
	}{
		{"internal/mc", "internal/mc", true},
		{"fuzzyprophet/internal/mc", "internal/mc", true},
		{"internal/mc/determfix", "internal/mc", true},
		{"fuzzyprophet/internal/mc/sub", "internal/mc", true},
		{"fuzzyprophet/internal/mcmc", "internal/mc", false},
		{"fuzzyprophet/internal/server", "internal/mc", false},
		{"internal/mcx/mc2", "internal/mc", false},
	}
	for _, tc := range cases {
		if got := lint.PathMatches(tc.pkg, tc.target); got != tc.want {
			t.Errorf("PathMatches(%q, %q) = %v, want %v", tc.pkg, tc.target, got, tc.want)
		}
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.Suite() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestDeadSeesWholeModule: a partial pattern still type-checks every
// package of the module, so fpdead counts callers outside the pattern and
// reports nothing a ./... run would not.
func TestDeadSeesWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads export data for the whole module")
	}
	pkgs, err := lint.Load("../..", "./internal/stats")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "fuzzyprophet/internal/stats" {
		t.Fatalf("loaded %d packages for one pattern", len(pkgs))
	}
	inView := map[string]bool{}
	for _, p := range pkgs[0].Module.Packages {
		inView[p.PkgPath] = true
	}
	if !inView["fuzzyprophet/internal/aggregate"] || !inView["fuzzyprophet"] {
		t.Fatalf("module view misses stats' callers: %v", inView)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.DeadAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSuiteCleanOnRepo is the merged-tree gate in test form: the whole
// suite must report nothing on the repository itself.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads export data for the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.Suite())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
