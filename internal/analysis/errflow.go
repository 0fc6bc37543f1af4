package analysis

import (
	"fmt"
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
// Both rules carry suggested fixes that `maprat-vet -fix` applies.
var Errflow = &Analyzer{
	Name: "errflow",
	Doc: "require errors.Is for sentinel comparisons (== / != against a " +
		"non-nil error breaks under wrapping) and %w when fmt.Errorf " +
		"formats an error value (%v/%s hide the chain from errors.Is/As); " +
		"both findings carry suggested fixes",
	Run: runErrflow,
}

func runErrflow(pass *Pass) error {
	for _, file := range pass.Files {
		f := file
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, f, x)
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
// both sides are error-typed and neither is nil, and suggests the
// errors.Is rewrite (argument order: the checked error first, the
// package-level sentinel second).
func checkSentinelCompare(pass *Pass, file *ast.File, be *ast.BinaryExpr) {
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

	neg := ""
	if be.Op == token.NEQ {
		neg = "!"
	}
	replacement := fmt.Sprintf("%serrors.Is(%s, %s)", neg, types.ExprString(errSide), types.ExprString(sentinelSide))
	fix := SuggestedFix{
		Message: fmt.Sprintf("replace with %s", replacement),
		Edits:   []TextEdit{pass.Edit(be.Pos(), be.End(), replacement)},
	}
	if imp, ok := importEdit(pass, file, "errors"); ok {
		fix.Edits = append(fix.Edits, imp)
	}
	op := "=="
	if be.Op == token.NEQ {
		op = "!="
	}
	pass.ReportFix(be.Pos(), fix, "sentinel error compared with %s: wrapping (fmt.Errorf %%w) breaks identity comparison; use %serrors.Is(%s, %s)", op, neg, types.ExprString(errSide), types.ExprString(sentinelSide))
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

// importEdit returns a TextEdit adding an import of path to file, or
// ok=false when the file already imports it.
func importEdit(pass *Pass, file *ast.File, path string) (TextEdit, bool) {
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path {
			return TextEdit{}, false
		}
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if gd.Lparen.IsValid() {
			// Insert in lexicographic position so the block stays sorted.
			for _, spec := range gd.Specs {
				imp, ok := spec.(*ast.ImportSpec)
				if !ok {
					continue
				}
				if strings.Trim(imp.Path.Value, `"`) > path {
					return pass.Edit(imp.Pos(), imp.Pos(), fmt.Sprintf("%q\n\t", path)), true
				}
			}
			if n := len(gd.Specs); n > 0 {
				last := gd.Specs[n-1]
				return pass.Edit(last.End(), last.End(), fmt.Sprintf("\n\t%q", path)), true
			}
			return pass.Edit(gd.Lparen+1, gd.Lparen+1, fmt.Sprintf("\n\t%q", path)), true
		}
		// Single-import form: prepend a separate declaration.
		return pass.Edit(gd.Pos(), gd.Pos(), fmt.Sprintf("import %q\n", path)), true
	}
	// No imports at all: add one right after the package clause.
	return pass.Edit(file.Name.End(), file.Name.End(), fmt.Sprintf("\n\nimport %q", path)), true
}

// checkErrorfWrap flags fmt.Errorf calls that format an error-typed
// argument without %w. When the format is a plain string literal with
// positional (non-indexed) verbs, the fix rewrites the error arguments'
// %v/%s verbs to %w in place.
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
	var errArgs []int // indexes into call.Args[1:]
	for i, a := range call.Args[1:] {
		atv, ok := pass.Info.Types[a]
		if ok && !atv.IsNil() && isErrorType(atv.Type) {
			errArgs = append(errArgs, i)
		}
	}
	if len(errArgs) == 0 {
		return
	}

	msg := "fmt.Errorf formats an error without %w: the cause is flattened to text and errors.Is/As can no longer see it"
	lit, isLit := ast.Unparen(formatArg).(*ast.BasicLit)
	if !isLit || lit.Kind != token.STRING {
		pass.Reportf(call.Pos(), "%s", msg)
		return
	}
	rewritten, ok := rewriteVerbs(lit.Value, errArgs)
	if !ok {
		pass.Reportf(call.Pos(), "%s", msg)
		return
	}
	fix := SuggestedFix{
		Message: "wrap the error with %w",
		Edits:   []TextEdit{pass.Edit(lit.Pos(), lit.End(), rewritten)},
	}
	pass.ReportFix(call.Pos(), fix, "%s", msg)
}

// rewriteVerbs walks the raw string literal (quotes included), maps each
// format verb to its argument index, and rewrites the verbs of the given
// argument indexes from v/s to w. It refuses (ok=false) on explicit
// argument indexes (%[1]v), star widths consuming arguments out of an
// order it would have to re-derive are handled (each * consumes one
// argument), and on verbs other than v/s for an error argument.
func rewriteVerbs(raw string, errArgs []int) (string, bool) {
	want := map[int]bool{}
	for _, i := range errArgs {
		want[i] = true
	}
	b := []byte(raw)
	arg := 0
	rewrote := 0
	for i := 0; i < len(b); i++ {
		if b[i] != '%' {
			continue
		}
		i++
		if i >= len(b) {
			return "", false
		}
		if b[i] == '%' {
			continue
		}
		// flags
		for i < len(b) && strings.ContainsRune("+-# 0", rune(b[i])) {
			i++
		}
		if i < len(b) && b[i] == '[' {
			return "", false // explicit argument index: bail
		}
		// width
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i < len(b) && b[i] == '*' {
			arg++
			i++
		}
		// precision
		if i < len(b) && b[i] == '.' {
			i++
			for i < len(b) && b[i] >= '0' && b[i] <= '9' {
				i++
			}
			if i < len(b) && b[i] == '*' {
				arg++
				i++
			}
		}
		if i >= len(b) {
			return "", false
		}
		verb := b[i]
		if want[arg] {
			if verb != 'v' && verb != 's' {
				return "", false
			}
			b[i] = 'w'
			rewrote++
		}
		arg++
	}
	if rewrote != len(errArgs) {
		return "", false
	}
	return string(b), true
}
