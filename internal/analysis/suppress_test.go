package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestSuppressMisuse proves the directive cannot be abused: an unknown
// analyzer name, a missing reason, an empty name list, and a stale
// directive all surface as findings, and none of them silence the
// underlying diagnostic.
func TestSuppressMisuse(t *testing.T) {
	diags := analysistest.Run(t, "testdata/suppress", analysis.Determinism)

	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	// unknownName, missingReason, emptyName each leave their determinism
	// finding unsuppressed; wellFormed and ownLine suppress theirs.
	if got := counts[analysis.Determinism.Name]; got != 3 {
		t.Errorf("determinism findings surviving misused directives = %d, want 3", got)
	}
	// unknownName, missingReason, emptyName, stale each yield one misuse
	// finding.
	if got := counts[analysis.SuppressName]; got != 4 {
		t.Errorf("suppress misuse findings = %d, want 4", got)
	}
}

// TestSuppressKnownNames pins the misuse message to the full analyzer
// catalog so an unknown name tells the author what is available.
func TestSuppressKnownNames(t *testing.T) {
	diags := analysistest.Run(t, "testdata/suppress", analysis.Determinism)
	for _, d := range diags {
		if d.Analyzer != analysis.SuppressName || !strings.Contains(d.Message, "unknown analyzer") {
			continue
		}
		for _, a := range analysis.All() {
			if !strings.Contains(d.Message, a.Name) {
				t.Errorf("misuse message %q does not list known analyzer %q", d.Message, a.Name)
			}
		}
		return
	}
	t.Error("no unknown-analyzer misuse finding produced")
}

// TestSuppressStaleOnlyForAnalyzersRun runs the fixture with errflow
// alone: its determinism directives have nothing to suppress in that run,
// but they are not stale — only malformed directives are findings.
func TestSuppressStaleOnlyForAnalyzersRun(t *testing.T) {
	diags, err := analysis.Run("testdata/suppress", []*analysis.Analyzer{analysis.Errflow}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "stale") {
			t.Errorf("directive of an analyzer that did not run reported stale: %s", d)
		}
	}
	// unknownName, missingReason and emptyName stay misuse findings.
	if len(diags) != 3 {
		t.Errorf("got %d findings, want the 3 malformed directives: %v", len(diags), diags)
	}
}
