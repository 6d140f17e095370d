package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// locksafe flags blocking operations performed while a server state mutex
// is held. CoREC's exactly-once encode workflow and lazy recovery assume a
// server can always make progress on its state mutex: an RPC, channel
// operation, sleep or arbitrary callback issued under s.mu can deadlock the
// whole group (PAPER.md §IV — token acquisition calls back into the
// holder's handler) or stall every reader behind a slow network.
//
// Tracked locks are sync.Mutex/RWMutex struct fields and package-level
// mutex variables — the state mutexes. Per-key workflow locks handed out by
// accessors (e.g. (*Server).writeLock) are local *sync.Mutex variables and
// are deliberately exempt: the write path holds them across RPC by design
// to serialize state machines, and they guard no handler-side state.
//
// Blocking operations:
//   - channel send/receive statements and expressions, select statements
//   - time.Sleep
//   - dynamic calls through func values (callbacks of unknowable cost)
//   - transport sends: any method named Send on an interface type, plus
//     the server-side wrappers named in blockingMethods
//
// sync.Cond Wait/Signal/Broadcast are exempt (Wait releases the mutex; the
// others never block).
//
// The state mutexes live in the package named "server".
var locksafe = Analyzer{
	Name:   "locksafe",
	Doc:    "no RPC, channel op, sleep or callback while a state mutex is held",
	covers: only("server"),
	body: func(p *pass, body *ast.BlockStmt) {
		(&lockWalker{p}).walkStmts(body.List, newLockState())
	},
}

// blockingMethods are project methods that perform network sends; calling
// them under a state mutex is as bad as calling the transport directly.
var blockingMethods = map[string]bool{
	"sendRetry":   true,
	"sendToGroup": true,
	"broadcast":   true,
}

// lockState tracks which mutex expressions are held on the current path.
// Keys are the printed lock expression ("s.mu"); values are hold depths.
type lockState struct {
	held map[string]int
}

func newLockState() *lockState {
	return &lockState{held: make(map[string]int)}
}

func (st *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range st.held {
		c.held[k] = v
	}
	return c
}

func (st *lockState) any() (string, bool) {
	// Deterministic pick for the message: smallest name.
	best := ""
	for k, v := range st.held {
		if v > 0 && (best == "" || k < best) {
			best = k
		}
	}
	return best, best != ""
}

// merge keeps the more conservative (more held) view of two branches.
func (st *lockState) merge(o *lockState) {
	for k, v := range o.held {
		if v > st.held[k] {
			st.held[k] = v
		}
	}
}

// lockWalker walks one function body, threading the set of held locks.
type lockWalker struct {
	*pass
}

// lockExprName returns the canonical name for a tracked mutex receiver, or
// "" when the expression is not a tracked lock (e.g. a local *sync.Mutex
// obtained from an accessor call).
func (w *lockWalker) lockExprName(recv ast.Expr) string {
	recv = ast.Unparen(recv)
	t, ok := w.Info.Types[recv]
	if !ok || !isMutexType(t.Type) {
		return ""
	}
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		// Field selector (s.mu) or package-qualified var (pkg.mu): tracked.
		return exprString(e)
	case *ast.Ident:
		obj := w.Info.Uses[e]
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != nil &&
			v.Parent().Parent() == types.Universe {
			// Package-level mutex variable.
			return e.Name
		}
		// Local variable: a workflow lock handed out by an accessor; exempt.
		return ""
	}
	return ""
}

func isMutexType(t types.Type) bool {
	return typeIs(t, "sync", "Mutex") || typeIs(t, "sync", "RWMutex")
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return fmt.Sprintf("%T", e)
}

// lockCall classifies a call as Lock/Unlock on a tracked mutex, returning
// the lock name and +1 (acquire) or -1 (release).
func (w *lockWalker) lockCall(call *ast.CallExpr) (string, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	var delta int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return "", 0
	}
	name := w.lockExprName(sel.X)
	if name == "" {
		return "", 0
	}
	return name, delta
}

// walkStmts processes a statement list sequentially, threading lock state,
// and returns the state at the fall-through exit.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, st *lockState) *lockState {
	for _, s := range stmts {
		st = w.walkStmt(s, st)
	}
	return st
}

// terminates reports whether a statement always transfers control away
// (return, panic-like call, goto). Used to drop branch states that never
// rejoin the fall-through path.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func lastTerminates(stmts []ast.Stmt) bool {
	return len(stmts) > 0 && terminates(stmts[len(stmts)-1])
}

func (w *lockWalker) walkStmt(s ast.Stmt, st *lockState) *lockState {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, delta := w.lockCall(call); delta != 0 {
				if delta > 0 {
					w.checkExprs(st, call.Args...)
				}
				st.held[name] += delta
				if st.held[name] < 0 {
					st.held[name] = 0
				}
				return st
			}
		}
		w.checkExprs(st, s.X)
	case *ast.DeferStmt:
		// The deferred call runs at return time and a go statement's runs
		// under no lock; a literal's body is a unit of its own. Arguments
		// evaluate now.
		w.checkExprs(st, s.Call.Args...)
	case *ast.GoStmt:
		w.checkExprs(st, s.Call.Args...)
	case *ast.DeclStmt:
		for _, spec := range s.Decl.(*ast.GenDecl).Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				w.checkExprs(st, vs.Values...)
			}
		}
	case *ast.AssignStmt:
		w.checkExprs(st, s.Rhs...)
		w.checkExprs(st, s.Lhs...)
	case *ast.ReturnStmt:
		w.checkExprs(st, s.Results...)
	case *ast.SendStmt:
		if lock, held := st.any(); held {
			w.report(s.Pos(), "channel send while %s is held", lock)
		}
		w.checkExprs(st, s.Value)
	case *ast.IncDecStmt:
		w.checkExprs(st, s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		w.checkExprs(st, s.Cond)
		thenSt := w.walkStmts(s.Body.List, st.clone())
		elseSt := st.clone()
		if s.Else != nil {
			elseSt = w.walkStmt(s.Else, elseSt)
		}
		if lastTerminates(s.Body.List) {
			return elseSt
		}
		thenSt.merge(elseSt)
		return thenSt
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.checkExprs(st, s.Cond)
		}
		bodySt := w.walkStmts(s.Body.List, st.clone())
		if s.Post != nil {
			w.walkStmt(s.Post, bodySt)
		}
		return st
	case *ast.RangeStmt:
		if t, ok := w.Info.Types[s.X]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				if lock, held := st.any(); held {
					w.report(s.Pos(), "range over channel while %s is held", lock)
				}
			}
		}
		w.checkExprs(st, s.X)
		w.walkStmts(s.Body.List, st.clone())
		return st
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.checkExprs(st, s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.checkExprs(st, cc.List...)
				w.walkStmts(cc.Body, st.clone())
			}
		}
		return st
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		st = w.walkStmt(s.Assign, st)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, st.clone())
			}
		}
		return st
	case *ast.SelectStmt:
		if lock, held := st.any(); held {
			w.report(s.Pos(), "select statement while %s is held", lock)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, st.clone())
			}
		}
		return st
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	}
	return st
}

// checkExprs scans expressions for blocking operations under held locks:
// channel receives and blocking calls. A func literal called in place runs
// under the current locks and is walked here; any other literal runs later
// and is a unit of its own.
func (w *lockWalker) checkExprs(st *lockState, exprs ...ast.Expr) {
	lock, held := st.any()
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" && held {
					w.report(n.Pos(), "channel receive while %s is held", lock)
				}
			case *ast.CallExpr:
				if !held {
					return true
				}
				if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
					w.inlined[lit] = true
					w.walkStmts(lit.Body.List, st.clone())
					w.checkExprs(st, n.Args...)
					return false
				}
				w.checkCall(st, lock, n)
			}
			return true
		})
	}
}

func (w *lockWalker) checkCall(st *lockState, lock string, call *ast.CallExpr) {
	if f := calleeFunc(w.Info, call); f != nil {
		path := funcPath(f)
		switch {
		case path == "time.Sleep":
			w.report(call.Pos(), "time.Sleep while %s is held", lock)
		case blockingMethods[f.Name()] && f.Pkg() != nil && f.Pkg().Path() == w.Path:
			w.report(call.Pos(), "call to %s (network send) while %s is held", f.Name(), lock)
		case w.isInterfaceSend(call, f):
			w.report(call.Pos(), "transport send (%s) while %s is held", path, lock)
		}
		return
	}
	if isDynamicCall(w.Info, call) {
		w.report(call.Pos(), "dynamic call through func value %q while %s is held", exprString(ast.Unparen(call.Fun)), lock)
	}
}

// isInterfaceSend reports whether f is a method named Send invoked through
// an interface — the transport.Network shape. Matching by shape rather than
// by import path keeps the analyzer honest under fixture packages.
func (w *lockWalker) isInterfaceSend(call *ast.CallExpr, f *types.Func) bool {
	if f.Name() != "Send" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := w.Info.Selections[sel]
	if !ok {
		return false
	}
	_, isIface := s.Recv().Underlying().(*types.Interface)
	if isIface {
		return true
	}
	n := namedOrPtrTo(s.Recv())
	if n != nil {
		_, isIface = n.Underlying().(*types.Interface)
	}
	return isIface
}
