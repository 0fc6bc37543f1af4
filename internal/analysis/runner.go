package analysis

import (
	"fmt"
)

// Options parameterize a suite run.
type Options struct {
	// Analyzers is the set to run (required).
	Analyzers []*Analyzer
}

// Result is a completed suite run.
type Result struct {
	// Diags are the surviving findings, sorted by position.
	Diags []Diagnostic
	// Sources maps every loaded target file (absolute path) to its
	// content — the input ApplyFixes and the -diff/-fix paths work from.
	Sources map[string][]byte
}

// Run loads patterns relative to dir, runs every analyzer over every
// loaded package, applies //maprat:allow suppressions, and returns the
// surviving findings sorted by position. The returned slice is empty for
// a clean tree.
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	res, err := RunWithOptions(dir, Options{Analyzers: analyzers}, patterns...)
	if err != nil {
		return nil, err
	}
	return res.Diags, nil
}

// RunWithOptions is Run that also returns the loaded sources, which the
// -fix and -diff paths apply suggested fixes to.
func RunWithOptions(dir string, opts Options, patterns ...string) (*Result, error) {
	l, err := golist(dir, patterns...)
	if err != nil {
		return nil, err
	}

	// Directive names validate against the whole suite, not just the
	// analyzers in this run: a //maprat:allow(ctxflow) is legitimate even
	// when only determinism is being re-run.
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range opts.Analyzers {
		known[a.Name] = true
	}

	res := &Result{Sources: map[string][]byte{}}
	for _, t := range l.targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		src, err := readSources(t)
		if err != nil {
			return nil, err
		}
		for p, b := range src {
			res.Sources[p] = b
		}
		pkg, err := l.checkPackage(t, src)
		if err != nil {
			return nil, err
		}
		diags, err := runPackage(pkg, opts.Analyzers, known)
		if err != nil {
			return nil, err
		}
		res.Diags = append(res.Diags, diags...)
	}
	sortDiagnostics(res.Diags)
	return res, nil
}

// runPackage runs the analyzers over one package and resolves its
// suppression directives. Directives are scoped to the package's own
// files, so a suppression can never reach across packages.
func runPackage(pkg *Package, analyzers []*Analyzer, known map[string]bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	dirs := parseDirectives(pkg)
	return applySuppressions(diags, dirs, known), nil
}
