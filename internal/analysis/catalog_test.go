package analysis_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestCatalogMatchesSuite keeps README.md honest: every analyzer in
// All() has exactly one "## <name>" section, and no such section names
// an analyzer the suite no longer ships. Prose sections ("## Testing")
// are capitalized and so never match an analyzer name.
func TestCatalogMatchesSuite(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`(?m)^## ([a-z][a-z0-9]*)\s*$`)
	sections := map[string]int{}
	for _, m := range heading.FindAllStringSubmatch(string(b), -1) {
		sections[m[1]]++
	}
	for _, a := range analysis.All() {
		if n := sections[a.Name]; n != 1 {
			t.Errorf("README.md has %d %q sections, want exactly 1", n, "## "+a.Name)
		}
		delete(sections, a.Name)
	}
	var stray []string
	for name := range sections {
		stray = append(stray, name)
	}
	sort.Strings(stray)
	if len(stray) > 0 {
		t.Errorf("README.md documents analyzers not in All(): %s", strings.Join(stray, ", "))
	}
}
