// Command maprat-vet is MapRat's invariant checker: a multichecker over
// the nine custom analyzers in internal/analysis (determinism, ctxflow,
// envelope, aliasguard, clonecheck, lockcheck, mergeorder, errflow,
// hotalloc) plus the suppression-directive auditor. It runs in CI on
// every PR next to go vet and gofmt.
//
// Usage:
//
//	maprat-vet [flags] [packages]
//
//	maprat-vet ./...                    # whole repo, text findings
//	maprat-vet -format=json ./...       # machine-readable findings
//	maprat-vet -format=github ./...     # GitHub Actions ::error annotations
//	maprat-vet -analyzers=lockcheck,errflow ./internal/jobs
//	maprat-vet -fix ./...               # apply suggested fixes in place
//	maprat-vet -diff ./...              # preview fixes; exit 1 if any
//	maprat-vet -list                    # rule catalog
//
// Exit status: 0 clean, 1 findings (or, with -diff, pending fixes),
// 2 usage or load failure.
//
// Findings are suppressed per line with
//
//	//maprat:allow(<analyzer>) <reason>
//
// where the reason is mandatory; unknown names, missing reasons and
// stale directives are findings themselves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("maprat-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format = fs.String("format", "text", "output format: text, json, or github (GitHub Actions annotations)")
		jsonF  = fs.Bool("json", false, "shorthand for -format=json")
		names  = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		list   = fs.Bool("list", false, "print the rule catalog and exit")
		fix    = fs.Bool("fix", false, "apply suggested fixes to the source files in place")
		diff   = fs.Bool("diff", false, "print the suggested fixes as a unified diff; exit 1 if non-empty")
		chdir  = fs.String("C", "", "run as if started in this directory")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%s\n\t%s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%s\n\t%s\n", analysis.SuppressName,
			"audit //maprat:allow(<analyzer>) <reason> directives: unknown analyzer names, missing reasons and stale directives are findings")
		return 0
	}

	var analyzers []*analysis.Analyzer
	if *names == "" {
		analyzers = analysis.All()
	} else {
		for _, n := range strings.Split(*names, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			a, ok := analysis.ByName(n)
			if !ok {
				fmt.Fprintf(stderr, "maprat-vet: unknown analyzer %q (valid: %s)\n", n, strings.Join(analyzerNames(), ", "))
				return 2
			}
			analyzers = append(analyzers, a)
		}
		if len(analyzers) == 0 {
			fmt.Fprintf(stderr, "maprat-vet: -analyzers named no analyzer (valid: %s)\n", strings.Join(analyzerNames(), ", "))
			return 2
		}
	}

	if *fix && *diff {
		fmt.Fprintln(stderr, "maprat-vet: -fix and -diff are mutually exclusive (one writes, one previews)")
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir := *chdir
	if dir == "" {
		var err error
		dir, err = os.Getwd()
		if err != nil {
			fmt.Fprintf(stderr, "maprat-vet: %v\n", err)
			return 2
		}
	}
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}

	res, err := analysis.RunWithOptions(dir, analysis.Options{Analyzers: analyzers}, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "maprat-vet: %v\n", err)
		return 2
	}

	if *diff {
		return runDiff(res, dir, stdout)
	}
	diags := res.Diags
	skippedFixes := 0
	if *fix {
		var code int
		diags, skippedFixes, code = applyFixes(res, stderr)
		if code != 0 {
			return code
		}
		// Fall through: unfixable findings still print and still gate.
	}

	if *jsonF {
		*format = "json"
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "maprat-vet: %v\n", err)
			return 2
		}
	case "github":
		// GitHub Actions workflow-command annotations: one ::error line
		// per finding, so the findings surface inline on the PR diff.
		for _, d := range diags {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=maprat-vet %s::%s\n",
				relPath(dir, d.File), d.Line, d.Col, d.Analyzer, d.Message)
		}
	case "text":
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relPath(dir, d.File), d.Line, d.Col, d.Analyzer, d.Message)
		}
	default:
		fmt.Fprintf(stderr, "maprat-vet: unknown -format %q\n", *format)
		return 2
	}

	if len(diags) > 0 {
		fmt.Fprintf(stderr, "maprat-vet: %d finding(s)\n", len(diags))
		return 1
	}
	if skippedFixes > 0 {
		// Overlapping fixes were left unapplied; another -fix pass is needed.
		return 1
	}
	return 0
}

// runDiff renders every suggested fix as a unified diff without touching
// the tree. A non-empty diff exits 1 — the CI vet-fix-gate.
func runDiff(res *analysis.Result, dir string, stdout io.Writer) int {
	fixed, _, _, err := analysis.ApplyFixes(res.Diags, res.Sources)
	if err != nil {
		fmt.Fprintf(stdout, "maprat-vet: %v\n", err)
		return 2
	}
	files := make([]string, 0, len(fixed))
	for f := range fixed {
		files = append(files, f)
	}
	sort.Strings(files)
	any := false
	for _, f := range files {
		d := analysis.UnifiedDiff(relPath(dir, f), res.Sources[f], fixed[f])
		if d != "" {
			any = true
			fmt.Fprint(stdout, d)
		}
	}
	if any {
		return 1
	}
	return 0
}

// applyFixes writes every suggested fix back to disk and returns the
// findings that had no fix (they still print and still gate the exit
// code) plus the count of overlap-skipped fixes, which also gate.
func applyFixes(res *analysis.Result, stderr io.Writer) ([]analysis.Diagnostic, int, int) {
	fixed, applied, skipped, err := analysis.ApplyFixes(res.Diags, res.Sources)
	if err != nil {
		fmt.Fprintf(stderr, "maprat-vet: %v\n", err)
		return nil, 0, 2
	}
	files := make([]string, 0, len(fixed))
	for f := range fixed {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		if err := os.WriteFile(f, fixed[f], 0o644); err != nil {
			fmt.Fprintf(stderr, "maprat-vet: %v\n", err)
			return nil, 0, 2
		}
	}
	fmt.Fprintf(stderr, "maprat-vet: applied %d fix(es) across %d file(s)", applied, len(files))
	if skipped > 0 {
		fmt.Fprintf(stderr, ", skipped %d overlapping", skipped)
	}
	fmt.Fprintln(stderr)

	var remaining []analysis.Diagnostic
	for _, d := range res.Diags {
		if len(d.SuggestedFixes) == 0 {
			remaining = append(remaining, d)
		}
	}
	return remaining, skipped, 0
}

func analyzerNames() []string {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	return names
}

// relPath shortens absolute finding paths to repo-relative ones; GitHub
// annotations require them, and the text output reads better.
func relPath(dir, file string) string {
	if rel, ok := strings.CutPrefix(file, dir+string(os.PathSeparator)); ok {
		return rel
	}
	return file
}
