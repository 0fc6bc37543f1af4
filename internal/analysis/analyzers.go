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
