// Package analysis is MapRat's static-analysis suite: five analyzers,
// each kept because it catches a recorded bug no test catches (see
// README.md) — deterministic mining (no wall clock, no global RNG),
// context discipline, guarded zero-copy aliasing over mmap'd snapshot
// pages, error-chain wrapping, and allocation hygiene in the hot kernels.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic, analysistest fixtures with // want comments) but is built
// entirely on the standard library: packages are loaded through
// `go list -json -export -deps` and type-checked from source against the
// toolchain's export data, so the suite needs no module dependencies and
// runs offline. Findings can be suppressed per line with
//
//	//maprat:allow(<analyzer>) <reason>
//
// where the reason is mandatory and unjustified, unknown, or stale
// directives are themselves findings (see suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. Run inspects a fully
// type-checked package through the Pass and reports findings; it must be
// deterministic and must not retain the Pass.
type Analyzer struct {
	// Name is the identifier used in findings, the -analyzers flag and
	// //maprat:allow directives. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph rule description shown by maprat-vet -list.
	Doc string
	// Run reports the analyzer's findings on one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test compiled Go files.
	Files []*ast.File
	// Pkg is the type-checked package; Path() is the full import path.
	Pkg *types.Package
	// Info holds the type information for Files.
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned in the original source.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// sortDiagnostics orders findings by (file, line, col, analyzer, message)
// so output never depends on analyzer scheduling or map iteration — the
// suite practices the determinism it preaches.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pathHasSuffix reports whether importPath ends with suffix on a path
// segment boundary ("repro/internal/core" matches "internal/core" but
// "internal/corex" does not). Matching by suffix keeps the analyzers
// usable against the fixture modules, whose module names differ.
func pathHasSuffix(importPath, suffix string) bool {
	return importPath == suffix || strings.HasSuffix(importPath, "/"+suffix)
}

// isPkgFunc reports whether the call's callee is the package-level
// function pkgPath.name (e.g. "time".Now), resolved through the type
// info rather than the source text, so aliased imports are still caught.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// calleeFunc resolves a call's callee to the *types.Func it invokes, or
// nil for calls through function values, builtins and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// identObj resolves an identifier to the object it uses or defines.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// constInt extracts an integer constant value from expr, if it is one.
func constInt(info *types.Info, expr ast.Expr) (int64, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return v, exact
}
