package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mergePkgSuffixes are the serving packages where map iteration order
// must never reach a response: golden-file byte identity and the ETag's
// (dataset, request) contract die the first time a map range orders a
// response payload.
var mergePkgSuffixes = []string{
	"internal/jobs",
	"internal/api",
	"internal/server",
}

// Mergeorder flags map-range loops whose per-element effects escape the
// function — an appended slice or string/float aggregate that is
// returned, written through a parameter/receiver, or stored in a named
// result — without the slice ever passing through a sort. Go randomizes
// map iteration per execution, so such output differs run to run and
// silently breaks byte-identical responses.
var Mergeorder = &Analyzer{
	Name: "mergeorder",
	Doc: "in internal/{jobs,api,server}: forbid map-iteration " +
		"order from reaching escaping output — slices appended inside a " +
		"map range must be sorted somewhere in the same function, and " +
		"string/float aggregation inside a map range is order-dependent " +
		"and needs a deterministic iteration order instead",
	Run: runMergeorder,
}

func inMergePkg(path string) bool {
	for _, s := range mergePkgSuffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

func runMergeorder(pass *Pass) error {
	if !inMergePkg(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkMergeOrder(pass, fn.Type, fn.Recv, fn.Body)
				}
			case *ast.FuncLit:
				checkMergeOrder(pass, fn.Type, nil, fn.Body)
			}
			return true
		})
	}
	return nil
}

type mergeCandidate struct {
	expr ast.Expr  // the append target / aggregate LHS
	pos  token.Pos // the range statement
	kind string    // "append" or the aggregate description
}

// checkMergeOrder audits one function body. The analysis is keyed on
// types.ExprString of the written expression, which lets selector
// targets (out.missing, resp.Items) participate — response DTOs are
// built exactly that way.
func checkMergeOrder(pass *Pass, ftype *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) {
	var cands []mergeCandidate

	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Nested literals are audited as their own functions.
			return false
		}
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
		collectMapRangeEffects(pass, rs, &cands)
		return true
	})
	if len(cands) == 0 {
		return
	}

	escaping := escapingRoots(pass, ftype, recv, body)
	sorted := sortedExprs(pass, body)

	for _, c := range cands {
		root, ok := rootIdentObj(pass, c.expr)
		if !ok || !escaping[root] {
			continue
		}
		key := types.ExprString(c.expr)
		if c.kind == "append" {
			if sorted[key] {
				continue
			}
			pass.Reportf(c.pos, "map iteration order leaks into %q: the slice escapes this function unsorted; sort it (sort/slices) before it leaves, or iterate sorted keys", key)
			continue
		}
		pass.Reportf(c.pos, "%s of %q inside a map range is order-dependent: map iteration order is randomized per run; iterate sorted keys instead", c.kind, key)
	}
}

// collectMapRangeEffects gathers order-sensitive writes inside one
// map-range body: appends, and string/float accumulation (integer
// aggregation commutes and is exempt).
func collectMapRangeEffects(pass *Pass, rs *ast.RangeStmt, cands *[]mergeCandidate) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		lhs := as.Lhs[0]
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			if len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass.Info, call) {
				return true
			}
			// Self-append only: x = append(x, ...). Append into a fresh
			// variable does not accumulate across iterations.
			if len(call.Args) == 0 || types.ExprString(ast.Unparen(call.Args[0])) != types.ExprString(lhs) {
				return true
			}
			*cands = append(*cands, mergeCandidate{expr: lhs, pos: rs.Pos(), kind: "append"})
		case token.ADD_ASSIGN, token.MUL_ASSIGN, token.SUB_ASSIGN, token.QUO_ASSIGN:
			tv, ok := pass.Info.Types[lhs]
			if !ok {
				return true
			}
			switch b, _ := tv.Type.Underlying().(*types.Basic); {
			case b == nil:
			case b.Info()&types.IsString != 0:
				*cands = append(*cands, mergeCandidate{expr: lhs, pos: rs.Pos(), kind: "string concatenation"})
			case b.Info()&(types.IsFloat|types.IsComplex) != 0:
				// Float addition does not associate; summation order changes
				// the low bits and two runs disagree byte-for-byte.
				*cands = append(*cands, mergeCandidate{expr: lhs, pos: rs.Pos(), kind: "floating-point accumulation"})
			}
		}
		return true
	})
}

// escapingRoots computes the objects whose mutations are visible outside
// the function: parameters and receivers (callers see writes through
// them), named results, and any identifier mentioned in a return
// statement.
func escapingRoots(pass *Pass, ftype *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	addFields(recv)
	addFields(ftype.Params)
	addFields(ftype.Results)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, e := range ret.Results {
			if root, ok := rootIdentObj(pass, e); ok {
				out[root] = true
			}
		}
		return true
	})
	return out
}

// sortedExprs collects the ExprString of every argument handed to a
// sort/slices call anywhere in the function: an append target that later
// flows through sort.Strings or slices.SortFunc is order-safe no matter
// how it was built.
func sortedExprs(pass *Pass, body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			out[types.ExprString(ast.Unparen(a))] = true
			// sort.Slice(out.items, ...) sorts the field too; register the
			// unparenthesized sub-expressions of &x as well.
			if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
				out[types.ExprString(ast.Unparen(u.X))] = true
			}
		}
		return true
	})
	return out
}

// rootIdentObj resolves the base identifier of an lvalue expression
// (x, x.f, x.f[i]) to its object.
func rootIdentObj(pass *Pass, e ast.Expr) (types.Object, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := identObj(pass.Info, x)
			return obj, obj != nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}
