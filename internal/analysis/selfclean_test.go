package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestRepoIsClean is the analyzers' gate: the repository itself must
// produce zero findings under the full suite. A rule that main cannot
// satisfy is a broken rule, and a violation that sneaks in fails
// `go test`.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(root, analysis.All())
	if err != nil {
		t.Fatalf("running suite over repo: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d.String())
	}
}
