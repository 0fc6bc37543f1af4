package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Errflow enforces Go 1.13+ error discipline everywhere in the tree:
// sentinel errors must be matched with errors.Is (== breaks the moment
// anyone wraps the sentinel — api.CodeForError classifies wrapped
// pipeline sentinels only because of this), and fmt.Errorf over an
// error value must wrap with %w so errors.Is/As can see through the new
// layer.
var Errflow = &Analyzer{
	Name: "errflow",
	Run:  runErrflow,
}

func runErrflow(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, x)
			case *ast.CallExpr:
				checkErrorfWrap(pass, x)
			}
			return true
		})
	}
	return nil
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

func isNilExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.IsNil()
}

// checkSentinelCompare flags err == sentinel / err != sentinel where
// both sides are error-typed and neither is nil, and names the errors.Is
// replacement (argument order: the checked error first, the
// package-level sentinel second).
func checkSentinelCompare(pass *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	ltv, lok := pass.Info.Types[be.X]
	rtv, rok := pass.Info.Types[be.Y]
	if !lok || !rok || !isErrorType(ltv.Type) || !isErrorType(rtv.Type) {
		return
	}
	if isNilExpr(pass, be.X) || isNilExpr(pass, be.Y) {
		return
	}
	errSide, sentinelSide := be.X, be.Y
	if isPackageLevelVar(pass, be.X) && !isPackageLevelVar(pass, be.Y) {
		errSide, sentinelSide = be.Y, be.X
	}

	op, neg := "==", ""
	if be.Op == token.NEQ {
		op, neg = "!=", "!"
	}
	pass.Reportf(be.Pos(), "sentinel error compared with %s: wrapping (fmt.Errorf %%w) breaks identity comparison; use %serrors.Is(%s, %s)", op, neg, types.ExprString(errSide), types.ExprString(sentinelSide))
}

func isPackageLevelVar(pass *Pass, e ast.Expr) bool {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	obj := identObj(pass.Info, id)
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// checkErrorfWrap flags fmt.Errorf calls that format an error-typed
// argument without %w.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	if !isPkgFunc(pass.Info, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	formatArg := call.Args[0]
	tv, ok := pass.Info.Types[formatArg]
	if !ok || tv.Value == nil {
		return // dynamic format: nothing provable
	}
	if tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	for _, a := range call.Args[1:] {
		if atv, ok := pass.Info.Types[a]; ok && !atv.IsNil() && isErrorType(atv.Type) {
			pass.Reportf(call.Pos(), "fmt.Errorf formats an error without %%w: the cause is flattened to text and errors.Is/As can no longer see it")
			return
		}
	}
}
