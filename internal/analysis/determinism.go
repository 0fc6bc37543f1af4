package analysis

import (
	"go/ast"
	"go/types"
)

// miningPkgSuffixes are the packages whose outputs feed mined results.
// Inside them, everything must be a pure function of (query, seed,
// epoch): PAPER.md's repeatable exploration, PR 1's sub-seeded restarts
// and the parallel cube build's partition-merge identity all assume it.
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
// wall-clock reads, the process-global math/rand generators, ad-hoc
// rand.New/NewSource seeding (internal/rng is the one sanctioned seam),
// and map-iteration order leaking into returned slices without a sort.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now, global math/rand, ad-hoc rand.New and unsorted " +
		"map-iteration results in the mining packages (internal/core, " +
		"internal/cube, internal/explore, internal/ingest, internal/store); " +
		"mined results must be a pure function of (query, seed, epoch)",
	Run: runDeterminism,
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
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapOrderLeak(pass, fd)
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

// checkMapOrderLeak flags range-over-map loops that append into a slice
// the function returns, unless the slice is also passed to a sort or
// slices call somewhere in the same function. Map iteration order is
// randomized per execution, so an unsorted result built this way differs
// run to run — the exact bug class that silently breaks partition-merge
// identity.
func checkMapOrderLeak(pass *Pass, fd *ast.FuncDecl) {
	type candidate struct {
		obj types.Object
		pos ast.Node
	}
	var cands []candidate

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			callRHS, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass.Info, callRHS) {
				return true
			}
			lhs, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if obj := identObj(pass.Info, lhs); obj != nil {
				cands = append(cands, candidate{obj: obj, pos: rs})
			}
			return true
		})
		return true
	})
	if len(cands) == 0 {
		return
	}

	returned := map[types.Object]bool{}
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					returned[obj] = true
				}
			}
		}
	}
	sorted := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			for _, e := range s.Results {
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					if obj := identObj(pass.Info, id); obj != nil {
						returned[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, s)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, a := range s.Args {
				if id, ok := ast.Unparen(a).(*ast.Ident); ok {
					if obj := identObj(pass.Info, id); obj != nil {
						sorted[obj] = true
					}
				}
			}
		}
		return true
	})

	for _, c := range cands {
		if returned[c.obj] && !sorted[c.obj] {
			pass.Reportf(c.pos.Pos(), "map iteration order leaks into returned slice %q: sort it (sort/slices) before returning, or build it from a deterministic order", c.obj.Name())
		}
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
