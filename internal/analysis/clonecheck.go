package analysis

import (
	"go/ast"
	"go/types"
)

// cacheFetchMethods maps internal/store cache types to the methods whose
// return values hand out a cached pointer: the LRU result cache, the
// singleflight layer in front of it, and the materialized-plan tier
// (both the current-epoch and the epoch-pinned fetch).
var cacheFetchMethods = map[string][]string{
	"LRU":       {"Get"},
	"Flight":    {"Do"},
	"PlanCache": {"GetOrBuild", "GetOrBuildAt"},
}

// Clonecheck statically catches the PR 2 cache-aliasing bug class:
// returning a pointer fetched from the result LRU, the singleflight
// layer or the plan cache without deep-copying it first. A caller that
// mutates such a pointer poisons the cache for everyone; every fetch
// that escapes via return must go through Clone (or carry an annotated
// immutability contract, like store.Plan).
var Clonecheck = &Analyzer{
	Name: "clonecheck",
	Doc: "a pointer fetched from store.LRU.Get / store.Flight.Do / " +
		"store.PlanCache.GetOrBuild(At) must not be returned without " +
		"calling Clone on it; cache hits must hand out deep copies",
	Run: runClonecheck,
}

func runClonecheck(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkCloneFlow(pass, fn.Body)
				}
				return false
			}
			return true
		})
	}
	return nil
}

// isCacheFetch reports whether call invokes one of the cache-fetch
// methods on an internal/store cache type, along with the type name.
func isCacheFetch(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !pathHasSuffix(obj.Pkg().Path(), "internal/store") {
		return "", false
	}
	for _, want := range cacheFetchMethods[obj.Name()] {
		if fn.Name() == want {
			return obj.Name() + "." + want, true
		}
	}
	return "", false
}

// checkCloneFlow walks one function body in source order, tracking
// values fetched from a cache through assignments and type assertions,
// and flags any return that hands a tracked value out uncloned. The flow
// is local and forward-only — the shape every fetch in this codebase
// actually has — and a `.Clone()` call launders the taint.
func checkCloneFlow(pass *Pass, body *ast.BlockStmt) {
	tracked := map[types.Object]string{}

	// taintSource reports whether e produces a tracked value, and from
	// which cache it originated.
	var taintSource func(e ast.Expr) (string, bool)
	taintSource = func(e ast.Expr) (string, bool) {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if src, ok := isCacheFetch(pass, x); ok {
				return src, true
			}
		case *ast.TypeAssertExpr:
			return taintSource(x.X)
		case *ast.Ident:
			if obj := identObj(pass.Info, x); obj != nil {
				if src, ok := tracked[obj]; ok {
					return src, true
				}
			}
		}
		return "", false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			if len(node.Rhs) != 1 {
				return true
			}
			src, isTaint := taintSource(node.Rhs[0])
			if id, ok := node.Lhs[0].(*ast.Ident); ok {
				if obj := identObj(pass.Info, id); obj != nil {
					if isTaint {
						tracked[obj] = src
					} else {
						// Reassignment from a clean source (including
						// `.Clone()`) launders the variable.
						delete(tracked, obj)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if src, ok := taintSource(res); ok {
					pass.Reportf(res.Pos(), "pointer fetched from store.%s escapes via return without Clone: cache hits must hand out deep copies, or the type's immutability contract must be annotated on this line", src)
				}
			}
		}
		return true
	})
}
