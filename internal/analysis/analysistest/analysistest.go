// Package analysistest runs analyzers over fixture modules and checks
// findings against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only.
//
// A fixture is a self-contained Go module (its own go.mod) under the
// calling test's testdata directory, so `go list` loads it offline with
// whatever package paths the analyzer under test keys on. Expectations
// are written on the offending line:
//
//	time.Now() // want `time\.Now`
//
// Every unsuppressed diagnostic must be matched by a want on its line,
// and every want must match a diagnostic. Lines carrying a
// //maprat:allow directive with no want assert suppression by absence.
package analysistest

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads the fixture module at dir, runs the analyzers over ./...,
// applies suppression directives, and checks the surviving diagnostics
// against the fixture's // want comments. It returns the diagnostics
// for any further assertions.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("resolving fixture dir: %v", err)
	}
	diags, err := analysis.Run(abs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers over %s: %v", dir, err)
	}

	wants := collectWants(t, abs)

	type lineKey struct {
		file string
		line int
	}
	unmatched := map[lineKey][]*want{}
	for i := range wants {
		w := &wants[i]
		unmatched[lineKey{w.file, w.line}] = append(unmatched[lineKey{w.file, w.line}], w)
	}

	for _, d := range diags {
		ws := unmatched[lineKey{d.File, d.Line}]
		matched := false
		for _, w := range ws {
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
	return diags
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var (
	wantRE    = regexp.MustCompile(`// want (.*)$`)
	wantArgRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

// collectWants scans every fixture .go file for // want comments.
func collectWants(t *testing.T, dir string) []want {
	t.Helper()
	var wants []want
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRE.FindAllString(m[1], -1)
			if len(args) == 0 {
				t.Errorf("%s:%d: malformed want comment %q", path, i+1, line)
				continue
			}
			for _, a := range args {
				var pat string
				if strings.HasPrefix(a, "`") {
					pat = strings.Trim(a, "`")
				} else {
					var uqErr error
					pat, uqErr = strconv.Unquote(a)
					if uqErr != nil {
						t.Errorf("%s:%d: bad want pattern %s: %v", path, i+1, a, uqErr)
						continue
					}
				}
				re, reErr := regexp.Compile(pat)
				if reErr != nil {
					t.Errorf("%s:%d: bad want regexp %q: %v", path, i+1, pat, reErr)
					continue
				}
				wants = append(wants, want{file: path, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("collecting wants: %v", err)
	}
	return wants
}
