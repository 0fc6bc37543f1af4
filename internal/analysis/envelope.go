package analysis

import (
	"go/ast"
)

// envelopePkgSuffixes are the HTTP transport packages whose error
// responses must carry the uniform v1 envelope (or the HTML front-end's
// single annotated text seam): a naked http.Error there would leak an
// envelope-less failure to SDK clients that decode the envelope shape.
var envelopePkgSuffixes = []string{"internal/api", "internal/server"}

// Envelope enforces the /api/v1 error contract inside the transport
// packages: failures must flow through api.StatusForError and the
// envelope writers (api.WriteJSON / writeEnvelope). A naked http.Error
// or an error-status WriteHeader bypasses both the envelope shape and
// the /statsz per-endpoint status counters.
var Envelope = &Analyzer{
	Name: "envelope",
	Doc: "in internal/api and internal/server, flag http.Error and " +
		"error-status WriteHeader calls that bypass the uniform error " +
		"envelope and the /statsz counters; error paths must go through " +
		"api.StatusForError and the envelope writers",
	Run: runEnvelope,
}

func runEnvelope(pass *Pass) error {
	if !inEnvelopePkg(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPkgFunc(pass.Info, call, "net/http", "Error") {
				pass.Reportf(call.Pos(), "http.Error bypasses the v1 error envelope and the /statsz counters; classify with api.StatusForError and write through an envelope/seam helper")
				return true
			}
			checkWriteHeader(pass, call)
			return true
		})
	}
	return nil
}

// checkWriteHeader flags WriteHeader calls that plainly write an error
// status: a constant >= 400, or a status freshly produced by the
// error-mapping helpers (StatusForError / statusForError / HTTPStatus).
// Success statuses and forwarded variables (middleware wrappers) pass.
func checkWriteHeader(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
		return
	}
	arg := ast.Unparen(call.Args[0])
	if v, ok := constInt(pass.Info, arg); ok {
		if v >= 400 {
			pass.Reportf(call.Pos(), "WriteHeader(%d) writes an error status outside the envelope writers; error paths must produce the {\"error\":{...}} envelope", v)
		}
		return
	}
	if inner, ok := arg.(*ast.CallExpr); ok {
		if fn := calleeFunc(pass.Info, inner); fn != nil {
			switch fn.Name() {
			case "StatusForError", "statusForError", "HTTPStatus":
				pass.Reportf(call.Pos(), "WriteHeader(%s(...)) writes a mapped error status directly; only the envelope writers may turn an error into a response", fn.Name())
			}
		}
	}
}

func inEnvelopePkg(path string) bool {
	for _, s := range envelopePkgSuffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}
