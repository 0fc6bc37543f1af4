package analysis

import (
	"go/ast"
	"go/types"
)

// miningPkgSuffixes are the packages whose outputs feed mined results.
// Inside them, everything must be a pure function of (query, seed,
// epoch): repeatable exploration and sub-seeded restarts assume it.
var miningPkgSuffixes = []string{
	"internal/core",
	"internal/cube",
	"internal/explore",
	"internal/ingest",
	"internal/store",
}

func inMiningPkg(path string) bool {
	for _, s := range miningPkgSuffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// Determinism forbids nondeterminism sources in the mining packages:
// wall-clock reads, the process-global math/rand generators, and ad-hoc
// rand.New/NewSource seeding (internal/rng is the one sanctioned seam).
var Determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !inMiningPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkDeterminismCall(pass, call)
			}
			return true
		})
	}
	return nil
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods on a *rand.Rand value are the
	// deterministic, sub-seeded generators internal/rng hands out.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "time.%s in mining code: results must be a pure function of (query, seed, epoch), not the wall clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewPCG", "NewChaCha8":
			pass.Reportf(call.Pos(), "ad-hoc %s.%s in mining code: seed through repro/internal/rng so restarts stay sub-seeded and reproducible", fn.Pkg().Path(), fn.Name())
		default:
			pass.Reportf(call.Pos(), "global %s.%s in mining code: the process-wide generator is shared and unseeded; draw from a repro/internal/rng generator instead", fn.Pkg().Path(), fn.Name())
		}
	}
}
