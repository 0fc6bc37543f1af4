package analysis

import (
	"go/ast"
)

// Ctxflow enforces the context discipline: no context.Background()/TODO()
// outside main packages and annotated seams, context.Context only as the
// first parameter, and no context-blind goroutine launches in the mining
// packages, where the pipeline threads ctx solver→engine→HTTP — an
// unanchored goroutine there keeps computing for callers that already
// hung up.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "flag context.Background()/context.TODO() outside main packages " +
		"and annotated seams, context.Context parameters not in first " +
		"position, and goroutines in mining packages that capture no " +
		"context",
	Run: runCtxflow,
}

func runCtxflow(pass *Pass) error {
	isMain := pass.Pkg.Name() == "main"
	checkGoroutines := inMiningPkg(pass.Pkg.Path())
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if isMain {
					return true
				}
				for _, name := range []string{"Background", "TODO"} {
					if isPkgFunc(pass.Info, node, "context", name) {
						pass.Reportf(node.Pos(), "context.%s() outside main: accept a ctx from the caller or annotate this seam with //maprat:allow(ctxflow) and a reason", name)
					}
				}
			case *ast.FuncType:
				checkCtxPosition(pass, node)
			case *ast.GoStmt:
				if checkGoroutines {
					checkGoroutineCtx(pass, node)
				}
			}
			return true
		})
	}
	return nil
}

// checkCtxPosition flags context.Context parameters that are not the
// first parameter. The convention is load-bearing, not cosmetic: every
// wrapper and seam in the codebase forwards ctx positionally.
func checkCtxPosition(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		width := len(field.Names)
		if width == 0 {
			width = 1
		}
		if ok && isContextType(tv.Type) && idx > 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter, found at position %d", idx+1)
		}
		idx += width
	}
}

// checkGoroutineCtx flags `go` statements whose spawned work can see no
// context: neither an argument nor (for a function literal) a captured
// variable of type context.Context.
func checkGoroutineCtx(pass *Pass, gs *ast.GoStmt) {
	call := gs.Call
	for _, arg := range call.Args {
		if tv, ok := pass.Info.Types[arg]; ok && isContextType(tv.Type) {
			return
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ctxSeen := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			expr, ok := n.(ast.Expr)
			if !ok || ctxSeen {
				return !ctxSeen
			}
			switch expr.(type) {
			case *ast.Ident, *ast.SelectorExpr:
				if tv, ok := pass.Info.Types[expr]; ok && isContextType(tv.Type) {
					ctxSeen = true
				}
			}
			return true
		})
		if ctxSeen {
			return
		}
	}
	pass.Reportf(gs.Pos(), "goroutine launched without a context in mining code: cancellation cannot reach it; pass or capture a ctx, or annotate the seam")
}
