package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockPkgSuffixes are the packages lockcheck audits: the concurrency
// tiers whose mutexes guard shared state on serving paths. A lock held
// across a blocking call there stalls every contender.
var lockPkgSuffixes = []string{
	"internal/ingest",
	"internal/jobs",
	"internal/store",
}

// Lockcheck is a flow-sensitive mutex auditor: it walks every function
// body tracking which sync.Mutex/RWMutex receivers are held on each
// path, and reports (1) blocking operations — channel sends/receives,
// default-less selects, pkg/client RPCs, HTTP round trips, WaitGroup/
// Cond waits, sleeps, file I/O — executed while a lock is held, (2)
// return paths that leak a manually-managed lock, and (3) explicit
// Unlocks that a pending deferred Unlock will double-unlock.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc: "in internal/{ingest,jobs,store}: flag blocking calls " +
		"(channel ops, selects without default, pkg/client RPCs, HTTP, " +
		"Wait, Sleep, file I/O) while a sync.Mutex/RWMutex is held, " +
		"return paths that leak a held lock, and explicit Unlocks that a " +
		"deferred Unlock then double-unlocks",
	Run: runLockcheck,
}

func inLockPkg(path string) bool {
	for _, s := range lockPkgSuffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

func runLockcheck(pass *Pass) error {
	if !inLockPkg(pass.Pkg.Path()) {
		return nil
	}
	w := &lockWalker{pass: pass}
	for _, file := range pass.Files {
		// Every function body — declarations and literals alike — is
		// analyzed as its own unit with an empty lock state. The walker
		// never descends into a nested FuncLit: a goroutine or callback
		// body does not inherit its creator's critical section.
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.walkFunc(fn.Body)
				}
			case *ast.FuncLit:
				w.walkFunc(fn.Body)
			}
			return true
		})
	}
	return nil
}

// lockState is the per-path abstract state: which mutex expressions are
// currently held, which have a deferred Unlock pending, and where a
// still-deferred lock was last explicitly released.
type lockState struct {
	held     map[string]token.Pos // manual holds: key -> Lock() position
	deferred map[string]token.Pos // pending deferred Unlocks: key -> defer position
	released map[string]token.Pos // explicit release while deferred pending
}

func newLockState() *lockState {
	return &lockState{
		held:     map[string]token.Pos{},
		deferred: map[string]token.Pos{},
		released: map[string]token.Pos{},
	}
}

func (st *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range st.held {
		c.held[k] = v
	}
	for k, v := range st.deferred {
		c.deferred[k] = v
	}
	for k, v := range st.released {
		c.released[k] = v
	}
	return c
}

// merge intersects branch states: a lock counts as held (or deferred)
// after a branch point only when every surviving branch agrees. The
// intersection under-approximates, which is the right bias for a linter
// — a must-hold fact produces no false "blocking while held" reports.
func mergeLockStates(states []*lockState) *lockState {
	if len(states) == 0 {
		return newLockState()
	}
	out := states[0].clone()
	for _, st := range states[1:] {
		for k := range out.held {
			if _, ok := st.held[k]; !ok {
				delete(out.held, k)
			}
		}
		for k := range out.deferred {
			if _, ok := st.deferred[k]; !ok {
				delete(out.deferred, k)
			}
		}
		for k, v := range st.released {
			out.released[k] = v
		}
	}
	return out
}

type lockWalker struct {
	pass *Pass
}

func (w *lockWalker) walkFunc(body *ast.BlockStmt) {
	st := newLockState()
	if terminated := w.walkStmts(body.List, st); !terminated {
		w.checkExit(st, body.Rbrace)
	}
}

// walkStmts threads st through the list, reporting as it goes, and
// returns whether the list definitely terminates (returns/branches/
// exits) before falling off the end.
func (w *lockWalker) walkStmts(list []ast.Stmt, st *lockState) bool {
	for _, s := range list {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *lockWalker) walkStmt(s ast.Stmt, st *lockState) bool {
	switch stmt := s.(type) {
	case *ast.ExprStmt:
		if call, ok := stmt.X.(*ast.CallExpr); ok {
			if key, op, ok := w.lockOp(call); ok {
				w.applyLockOp(call.Pos(), key, op, st)
				w.scanExprs(st, call.Args...)
				return false
			}
			if isTerminalCall(w.pass.Info, call) {
				w.scanExprs(st, call.Args...)
				return true
			}
		}
		w.scanExprs(st, stmt.X)
	case *ast.AssignStmt:
		w.scanExprs(st, stmt.Rhs...)
		w.scanExprs(st, stmt.Lhs...)
	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.scanExprs(st, vs.Values...)
				}
			}
		}
	case *ast.IncDecStmt:
		w.scanExprs(st, stmt.X)
	case *ast.SendStmt:
		w.reportBlocked(stmt.Pos(), "channel send", st)
		w.scanExprs(st, stmt.Chan, stmt.Value)
	case *ast.DeferStmt:
		w.applyDefer(stmt, st)
	case *ast.GoStmt:
		// The goroutine body runs concurrently with its own empty state
		// (analyzed separately); only the call's arguments evaluate now.
		w.scanExprs(st, stmt.Call.Args...)
	case *ast.ReturnStmt:
		w.scanExprs(st, stmt.Results...)
		w.checkExit(st, stmt.Pos())
		return true
	case *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return w.walkStmts(stmt.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(stmt.Stmt, st)
	case *ast.IfStmt:
		return w.walkIf(stmt, st)
	case *ast.ForStmt:
		if stmt.Init != nil {
			w.walkStmt(stmt.Init, st)
		}
		w.scanExprs(st, stmt.Cond)
		body := st.clone()
		w.walkStmts(stmt.Body.List, body)
		if stmt.Post != nil {
			w.walkStmt(stmt.Post, body)
		}
		// After the loop, keep the entry state: zero iterations are
		// possible, and a body that locks/unlocks in balance converges to
		// the same state anyway.
	case *ast.RangeStmt:
		w.scanExprs(st, stmt.X)
		if tv, ok := w.pass.Info.Types[stmt.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.reportBlocked(stmt.Pos(), "range over channel", st)
			}
		}
		body := st.clone()
		w.walkStmts(stmt.Body.List, body)
	case *ast.SwitchStmt:
		if stmt.Init != nil {
			w.walkStmt(stmt.Init, st)
		}
		w.scanExprs(st, stmt.Tag)
		return w.walkCases(stmt.Body, st, true)
	case *ast.TypeSwitchStmt:
		if stmt.Init != nil {
			w.walkStmt(stmt.Init, st)
		}
		return w.walkCases(stmt.Body, st, true)
	case *ast.SelectStmt:
		return w.walkSelect(stmt, st)
	}
	return false
}

func (w *lockWalker) walkIf(stmt *ast.IfStmt, st *lockState) bool {
	if stmt.Init != nil {
		w.walkStmt(stmt.Init, st)
	}
	w.scanExprs(st, stmt.Cond)
	bodySt := st.clone()
	bodyTerm := w.walkStmts(stmt.Body.List, bodySt)
	if stmt.Else == nil {
		if !bodyTerm {
			*st = *mergeLockStates([]*lockState{st, bodySt})
		}
		return false
	}
	elseSt := st.clone()
	elseTerm := w.walkStmt(stmt.Else, elseSt)
	switch {
	case bodyTerm && elseTerm:
		return true
	case bodyTerm:
		*st = *elseSt
	case elseTerm:
		*st = *bodySt
	default:
		*st = *mergeLockStates([]*lockState{bodySt, elseSt})
	}
	return false
}

// walkCases handles switch/type-switch bodies: each case walks a clone,
// and the exit state is the merge of the surviving branches (plus the
// entry state when no default case guarantees a branch runs).
func (w *lockWalker) walkCases(body *ast.BlockStmt, st *lockState, includeEntryWithoutDefault bool) bool {
	var surviving []*lockState
	hasDefault := false
	anyCase := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		anyCase = true
		if cc.List == nil {
			hasDefault = true
		}
		w.scanExprs(st, cc.List...)
		caseSt := st.clone()
		if !w.walkStmts(cc.Body, caseSt) {
			surviving = append(surviving, caseSt)
		}
	}
	if !anyCase {
		return false
	}
	if includeEntryWithoutDefault && !hasDefault {
		surviving = append(surviving, st.clone())
	}
	if len(surviving) == 0 {
		return true
	}
	*st = *mergeLockStates(surviving)
	return false
}

func (w *lockWalker) walkSelect(stmt *ast.SelectStmt, st *lockState) bool {
	hasDefault := false
	for _, c := range stmt.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.reportBlocked(stmt.Pos(), "select without default", st)
	}
	var surviving []*lockState
	for _, c := range stmt.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		caseSt := st.clone()
		// The comm op itself is part of the select's blocking decision
		// (already reported above); only its side effects matter here.
		if cc.Comm != nil {
			if as, ok := cc.Comm.(*ast.AssignStmt); ok {
				w.scanExprs(caseSt, as.Lhs...)
			}
		}
		if !w.walkStmts(cc.Body, caseSt) {
			surviving = append(surviving, caseSt)
		}
	}
	if len(surviving) == 0 && len(stmt.Body.List) > 0 {
		return true
	}
	if len(surviving) > 0 {
		*st = *mergeLockStates(surviving)
	}
	return false
}

// lockOp classifies a call as one of the sync lock operations on a
// trackable receiver expression, returning the canonical receiver key.
func (w *lockWalker) lockOp(call *ast.CallExpr) (key, op string, ok bool) {
	fn := calleeFunc(w.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	recvName := typeName(sig.Recv().Type())
	if recvName != "Mutex" && recvName != "RWMutex" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	key = types.ExprString(sel.X)
	// Read and write locks pair independently: an RUnlock must not
	// balance a Lock.
	if fn.Name() == "RLock" || fn.Name() == "RUnlock" {
		key += " [read]"
	}
	return key, fn.Name(), true
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func (w *lockWalker) applyLockOp(pos token.Pos, key, op string, st *lockState) {
	switch op {
	case "Lock", "RLock":
		if prev, ok := st.held[key]; ok && op == "Lock" {
			w.pass.Reportf(pos, "%s.Lock while already held (locked at line %d): self-deadlock", displayKey(key), w.line(prev))
		}
		st.held[key] = pos
		delete(st.released, key)
	case "Unlock", "RUnlock":
		if _, ok := st.held[key]; ok {
			delete(st.held, key)
			if _, def := st.deferred[key]; def {
				st.released[key] = pos
			}
			return
		}
		if dpos, ok := st.deferred[key]; ok {
			w.pass.Reportf(pos, "explicit %s.%s with a deferred %s pending (deferred at line %d): double unlock", displayKey(key), op, op, w.line(dpos))
		}
		// Unlocking a lock this function never acquired (caller-held
		// handoff) is not locally provable either way; stay silent.
	}
}

// applyDefer registers deferred Unlocks — both the direct
// `defer mu.Unlock()` form and Unlock statements inside a deferred
// function literal.
func (w *lockWalker) applyDefer(stmt *ast.DeferStmt, st *lockState) {
	w.scanExprs(st, stmt.Call.Args...)
	if key, op, ok := w.lockOp(stmt.Call); ok && (op == "Unlock" || op == "RUnlock") {
		st.deferred[key] = stmt.Pos()
		return
	}
	if lit, ok := ast.Unparen(stmt.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if key, op, ok := w.lockOp(call); ok && (op == "Unlock" || op == "RUnlock") {
					st.deferred[key] = stmt.Pos()
				}
			}
			return true
		})
	}
}

// checkExit audits one path exit (return or end of body): a manually
// managed lock still held leaks; a deferred Unlock whose lock was
// explicitly released double-unlocks.
func (w *lockWalker) checkExit(st *lockState, pos token.Pos) {
	for key, lpos := range st.held {
		if _, ok := st.deferred[key]; !ok {
			w.pass.Reportf(pos, "return while %s is still locked (Lock at line %d): missing Unlock on this path", displayKey(key), w.line(lpos))
		}
	}
	for key, dpos := range st.deferred {
		if _, held := st.held[key]; held {
			continue
		}
		if rpos, ok := st.released[key]; ok {
			w.pass.Reportf(rpos, "%s released here but a deferred Unlock (line %d) fires again on return: double unlock", displayKey(key), w.line(dpos))
		}
	}
}

// scanExprs looks for blocking operations inside the statement's
// expressions: channel receives and the blocking-call set. Function
// literals are opaque — their bodies run elsewhere (or are analyzed as
// their own unit).
func (w *lockWalker) scanExprs(st *lockState, exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					w.reportBlocked(x.Pos(), "channel receive", st)
				}
			case *ast.CallExpr:
				if desc := w.blockingCall(x); desc != "" {
					w.reportBlocked(x.Pos(), desc, st)
				}
			}
			return true
		})
	}
}

func (w *lockWalker) reportBlocked(pos token.Pos, what string, st *lockState) {
	for key, lpos := range st.held {
		w.pass.Reportf(pos, "%s while holding %s (locked at line %d): a blocked critical section stalls every contender; release the lock first or move the blocking work out", what, displayKey(key), w.line(lpos))
	}
}

// blockingCall classifies calls that can block indefinitely (or for I/O
// time) and therefore must not run inside a critical section. The set is
// deliberately concrete — named std-lib operations plus anything in
// pkg/client, which is all RPC.
func (w *lockWalker) blockingCall(call *ast.CallExpr) string {
	fn := calleeFunc(w.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	if pathHasSuffix(pkg, "pkg/client") {
		return "pkg/client RPC " + name
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = typeName(sig.Recv().Type())
	}
	switch pkg {
	case "sync":
		if name == "Wait" && (recv == "WaitGroup" || recv == "Cond") {
			return "sync." + recv + ".Wait"
		}
	case "time":
		if name == "Sleep" && recv == "" {
			return "time.Sleep"
		}
	case "net/http":
		if recv == "Client" && (name == "Do" || name == "Get" || name == "Post" || name == "PostForm" || name == "Head") {
			return "http.Client." + name
		}
		if recv == "" && (name == "Get" || name == "Post" || name == "PostForm" || name == "Head") {
			return "http." + name
		}
	case "os":
		if recv == "" && (name == "ReadFile" || name == "WriteFile" || name == "Open" || name == "OpenFile" || name == "Create") {
			return "os." + name
		}
		if recv == "File" && (name == "Read" || name == "Write" || name == "ReadAt" || name == "WriteAt" || name == "Sync") {
			return "os.File." + name
		}
	case "io":
		if recv == "" && (name == "ReadAll" || name == "Copy" || name == "CopyN" || name == "CopyBuffer" || name == "ReadFull") {
			return "io." + name
		}
	case "os/exec":
		if recv == "Cmd" && (name == "Run" || name == "Output" || name == "CombinedOutput" || name == "Wait") {
			return "exec.Cmd." + name
		}
	}
	if name == "RoundTrip" && recv != "" {
		return recv + ".RoundTrip"
	}
	return ""
}

func displayKey(key string) string {
	return key
}

func (w *lockWalker) line(pos token.Pos) int {
	return w.pass.Fset.Position(pos).Line
}

// isTerminalCall reports calls that never return: panic and the
// process-exit family.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "log":
		switch fn.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	case "runtime":
		return fn.Name() == "Goexit"
	}
	return false
}
