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
// All() has exactly one "## <name>" section, that section carries a
// "**Justified by:**" paragraph naming the mutation only the analyzer
// catches, and no such section names an analyzer the suite no longer
// ships. Prose sections ("## Testing") are capitalized and so never
// match an analyzer name.
func TestCatalogMatchesSuite(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[a-z][a-z0-9]*$`)
	justified := regexp.MustCompile(`(?m)^\*\*Justified by:\*\* \S`)
	sections := map[string][]string{}
	for _, part := range strings.Split(string(b), "\n## ")[1:] {
		title, body, _ := strings.Cut(part, "\n")
		if title = strings.TrimSpace(title); name.MatchString(title) {
			sections[title] = append(sections[title], body)
		}
	}
	for _, a := range analysis.All() {
		switch s := sections[a.Name]; {
		case len(s) != 1:
			t.Errorf("README.md has %d %q sections, want exactly 1", len(s), "## "+a.Name)
		case !justified.MatchString(s[0]):
			t.Errorf("README.md section %q has no **Justified by:** paragraph", "## "+a.Name)
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
