package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotPkgSuffixes are the PR 3 hot kernels: the cube scan/aggregate loops
// and the core mining passes, where per-iteration allocations dominate
// the profile long before algorithmic cost does.
var hotPkgSuffixes = []string{
	"internal/cube",
	"internal/core",
}

// Hotalloc flags the allocation patterns that repeatedly show up in the
// kernels' profiles: fmt formatting and string concatenation inside
// loops (one heap string per iteration), loop-filled slices declared
// without capacity (O(log n) regrows and copies), and capturing closures
// created per iteration.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "in the hot kernels internal/{cube,core}: flag fmt.Sprint*/string " +
		"concatenation inside loops, appends into never-presized slices " +
		"filled by a loop, and capturing closures allocated per iteration",
	Run: runHotalloc,
}

func inHotPkg(path string) bool {
	for _, s := range hotPkgSuffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

func runHotalloc(pass *Pass) error {
	if !inHotPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkHotFunc(pass, fd.Body)
			return true
		})
	}
	return nil
}

func checkHotFunc(pass *Pass, body *ast.BlockStmt) {
	// Slices declared empty (no capacity) in this function, by object:
	// var x []T · x := []T{} · x := make([]T) / make([]T, 0).
	unsized := map[types.Object]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.DeclStmt:
			gd, ok := d.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.Info.Defs[name]; obj != nil && isSliceType(obj.Type()) {
						unsized[obj] = name.Pos()
					}
				}
			}
		case *ast.AssignStmt:
			if d.Tok != token.DEFINE || len(d.Lhs) != len(d.Rhs) {
				return true
			}
			for i, lhs := range d.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil || !isSliceType(obj.Type()) {
					continue
				}
				if isEmptyNoCapSlice(pass, d.Rhs[i]) {
					unsized[obj] = id.Pos()
				}
			}
		}
		return true
	})

	// Immediately-invoked literals don't escape as values; exempt them
	// from the closure rule.
	invoked := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				invoked[lit] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
		default:
			return true
		}
		checkLoopBody(pass, loopBody, unsized, invoked, n.Pos())
		return true
	})
}

func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isEmptyNoCapSlice matches []T{}, make([]T), and make([]T, 0) — the
// forms that guarantee append will regrow from capacity zero.
func isEmptyNoCapSlice(pass *Pass, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		tv, ok := pass.Info.Types[x]
		return ok && isSliceType(tv.Type) && len(x.Elts) == 0
	case *ast.CallExpr:
		id, ok := ast.Unparen(x.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
			return false
		}
		if len(x.Args) == 3 {
			return false // explicit capacity
		}
		tv, ok := pass.Info.Types[x]
		if !ok || !isSliceType(tv.Type) {
			return false
		}
		if len(x.Args) == 2 {
			v, exact := constInt(pass.Info, x.Args[1])
			return exact && v == 0
		}
		return true
	}
	return false
}

// checkLoopBody reports the three allocation patterns inside one loop
// body. Nested function literals are their own scopes: work inside them
// does not run per iteration of this loop (goroutine/callback bodies),
// so the walk prunes them — the closure *creation* is what the loop
// pays for, and that is reported at the literal itself.
func checkLoopBody(pass *Pass, body *ast.BlockStmt, unsized map[types.Object]token.Pos, invoked map[*ast.FuncLit]bool, loopPos token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if !invoked[x] && capturesOuter(pass, x) {
				pass.Reportf(x.Pos(), "capturing closure created inside a loop: one allocation per iteration in a hot kernel; hoist the closure (or the loop-invariant part of it) out of the loop")
			}
			return false
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				switch fn.Name() {
				case "Sprintf", "Sprint", "Sprintln":
					pass.Reportf(x.Pos(), "fmt.%s inside a hot-kernel loop allocates a string per iteration: use strconv.Append*/copy into a reused buffer", fn.Name())
				}
			}
		case *ast.AssignStmt:
			checkLoopAssign(pass, x, unsized, loopPos)
		}
		return true
	})
}

func checkLoopAssign(pass *Pass, as *ast.AssignStmt, unsized map[types.Object]token.Pos, loopPos token.Pos) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if tv, ok := pass.Info.Types[as.Lhs[0]]; ok {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				pass.Reportf(as.Pos(), "string concatenation inside a hot-kernel loop reallocates the whole string each iteration: use strings.Builder or a reused []byte")
			}
		}
		return
	}
	if (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltinAppend(pass.Info, call) || len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := identObj(pass.Info, id)
	if obj == nil {
		return
	}
	declPos, ok := unsized[obj]
	// Only when the empty declaration precedes the loop: a slice born
	// inside the iteration is a different (per-iteration) problem, and a
	// presized one is already fine.
	if !ok || declPos >= loopPos {
		return
	}
	if types.ExprString(ast.Unparen(call.Args[0])) != types.ExprString(as.Lhs[0]) {
		return
	}
	pass.Reportf(as.Pos(), "append into %q grows from zero capacity inside a hot-kernel loop: presize with make(%s, 0, n) when the element count is knowable", id.Name, obj.Type().String())
}

// capturesOuter reports whether the literal references a local variable
// declared outside itself — the capture that forces a per-instance
// closure allocation (non-capturing literals compile to a shared static
// value).
func capturesOuter(pass *Pass, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() || v.IsField() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
			return false
		}
		return true
	})
	return captures
}
