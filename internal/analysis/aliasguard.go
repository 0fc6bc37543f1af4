package analysis

import (
	"go/ast"
	"go/types"
)

// Aliasguard polices the zero-copy aliasing path (internal/snapshot and
// any future package that reinterprets raw pages): a file may call
// unsafe.Slice only if the same file declares a layout guard — code that
// checks unsafe.Sizeof/unsafe.Offsetof assumptions before the alias is
// trusted — and slices produced by aliasing must never be written
// through, because they may point into shared read-only mmap'd pages.
var Aliasguard = &Analyzer{
	Name: "aliasguard",
	Run:  runAliasguard,
}

func runAliasguard(pass *Pass) error {
	aliasFns := aliasConstructors(pass)
	for _, file := range pass.Files {
		slices := unsafeSliceCalls(pass, file)
		if len(slices) > 0 && !fileHasLayoutGuard(pass, file) {
			for _, call := range slices {
				pass.Reportf(call.Pos(), "unsafe.Slice in a file with no layout guard: add a check of unsafe.Sizeof/unsafe.Offsetof assumptions in this file (see snapshot.arenaLayoutCompatible) so a struct change cannot silently alias garbage")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				checkAliasWrites(pass, fn, aliasFns)
			}
			return true
		})
	}
	return nil
}

// isUnsafeRef reports whether expr is a selector on package unsafe with
// the given name. unsafe's members are builtins, not *types.Func, so the
// generic callee resolution does not apply.
func isUnsafeRef(pass *Pass, expr ast.Expr, name string) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "unsafe"
}

func unsafeSliceCalls(pass *Pass, file *ast.File) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(file, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isUnsafeRef(pass, call.Fun, "Slice") {
			out = append(out, call)
		}
		return true
	})
	return out
}

// fileHasLayoutGuard reports whether the file contains any use of
// unsafe.Sizeof or unsafe.Offsetof — the building blocks of a layout
// guard like snapshot.arenaLayoutCompatible.
func fileHasLayoutGuard(pass *Pass, file *ast.File) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if isUnsafeRef(pass, call.Fun, "Sizeof") || isUnsafeRef(pass, call.Fun, "Offsetof") {
				found = true
			}
		}
		return true
	})
	return found
}

// aliasConstructors returns the package-level functions whose bodies
// call unsafe.Slice and whose results include a slice — the package's
// alias factories (aliasInt32). Values they return are
// treated as aliased in every function of the package.
func aliasConstructors(pass *Pass) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Results == nil {
				continue
			}
			returnsSlice := false
			for _, r := range fd.Type.Results.List {
				if tv, ok := pass.Info.Types[r.Type]; ok {
					if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
						returnsSlice = true
					}
				}
			}
			if !returnsSlice {
				continue
			}
			uses := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isUnsafeRef(pass, call.Fun, "Slice") {
					uses = true
				}
				return !uses
			})
			if !uses {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				out[obj] = true
			}
		}
	}
	return out
}

// checkAliasWrites tracks, within one function, variables assigned from
// unsafe.Slice or an alias constructor, and flags element stores and
// copy-into through them. The tracking is local and syntactic by design:
// an alias that escapes into a struct is the consuming code's contract
// to uphold (and the snapshot package documents it), but a direct write
// in the same function is always a bug.
func checkAliasWrites(pass *Pass, fd *ast.FuncDecl, aliasFns map[*types.Func]bool) {
	tracked := map[types.Object]bool{}

	isAliasCall := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		if isUnsafeRef(pass, call.Fun, "Slice") {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		return fn != nil && aliasFns[fn]
	}
	trackedIdent := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		obj := identObj(pass.Info, id)
		return obj != nil && tracked[obj]
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			// Track a fresh alias: v, ok := aliasInt32(b) / s := unsafe.Slice(...).
			// A plain reassignment (e.g. the decode fallback's
			// `arena = make([]int32, n)`) clears the taint again.
			if len(node.Rhs) == 1 {
				if id, ok := node.Lhs[0].(*ast.Ident); ok {
					if obj := identObj(pass.Info, id); obj != nil {
						if isAliasCall(node.Rhs[0]) {
							tracked[obj] = true
						} else {
							delete(tracked, obj)
						}
					}
				}
			}
			// Flag element stores through a tracked alias.
			for _, lhs := range node.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && trackedIdent(ix.X) {
					pass.Reportf(lhs.Pos(), "write through aliased slice: the backing pages may be mmap'd read-only and shared between processes; copy before mutating")
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
				if b, isB := pass.Info.Uses[id].(*types.Builtin); isB && b.Name() == "copy" && len(node.Args) == 2 && trackedIdent(node.Args[0]) {
					pass.Reportf(node.Pos(), "copy into aliased slice: the backing pages may be mmap'd read-only and shared between processes; allocate a destination instead")
				}
			}
		}
		return true
	})
}
