package analysis

import "fmt"

// Run loads patterns relative to dir, runs every analyzer over every
// loaded package, applies //maprat:allow suppressions, and returns the
// surviving findings sorted by position. The returned slice is empty for
// a clean tree.
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
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
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var diags []Diagnostic
	for _, t := range l.targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		src, err := readSources(t)
		if err != nil {
			return nil, err
		}
		pkg, err := l.checkPackage(t, src)
		if err != nil {
			return nil, err
		}
		d, err := runPackage(pkg, analyzers, known)
		if err != nil {
			return nil, err
		}
		diags = append(diags, d...)
	}
	sortDiagnostics(diags)
	return diags, nil
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
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	return applySuppressions(diags, parseDirectives(pkg), known, ran), nil
}
