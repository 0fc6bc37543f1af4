package analysis

// All returns the full suite in its canonical order. The slice is fresh
// on every call so callers may filter it.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Ctxflow,
		Aliasguard,
		Errflow,
		Hotalloc,
	}
}

// ByName resolves an analyzer by its directive/flag name.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}
