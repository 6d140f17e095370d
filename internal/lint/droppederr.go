package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// droppederr flags calls whose error result is silently discarded in
// non-test code. A dropped error on the write or recovery path is how a
// replica push that never landed turns into a stale read three failures
// later. The sanctioned idioms are: handle the error, or discard it
// explicitly with a blank assignment (`_ = f()` / `_, _ = f()`) next to a
// comment saying why — the blank assignment is visible in review and
// grep-able, an unassigned call is neither.
//
// Only expression statements are flagged. Blank assignments are the
// explicit discard idiom; defer/go statements follow different cleanup
// conventions and are left to review.
//
// Test files are exempt, as the walk skips them for every analyzer: tests
// discard errors of arranged failures all the time.
var droppederr = Analyzer{
	Name: "droppederr",
	Doc:  "no silently discarded error returns in non-test code",
	node: droppedErr,
}

// droppederrSafe lists callees whose error results never carry information
// worth handling (writes to in-memory sinks, stdout/stderr prints).
// Matching is on the funcPath rendering; receiver entries cover all methods
// of the type.
var droppederrSafe = map[string]bool{
	"fmt.Print":   true,
	"fmt.Printf":  true,
	"fmt.Println": true,
}

// droppederrSafeRecv lists receiver types all of whose error-returning
// methods are safe to drop: in-memory sinks cannot fail, (*rand.Rand).Read
// is documented to always succeed, and tabwriter is only ever a
// human-readable report formatter here.
var droppederrSafeRecv = map[string]bool{
	"*bytes.Buffer":          true,
	"bytes.Buffer":           true,
	"*strings.Builder":       true,
	"strings.Builder":        true,
	"*math/rand.Rand":        true,
	"*text/tabwriter.Writer": true,
	// hash.Hash documents that Write never returns an error.
	"hash.Hash":   true,
	"hash.Hash32": true,
	"hash.Hash64": true,
}

func droppedErr(p *pass, n ast.Node) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || !returnsError(p.Info, call) {
		return
	}
	name := exprString(ast.Unparen(call.Fun))
	if f := calleeFunc(p.Info, call); f != nil {
		if droppederrSafe[funcPath(f)] || droppederrSafeRecv[recvTypeString(p.Info, call, f)] || isSafeFprint(p.Info, f, call) {
			return
		}
		name = shortFuncName(f)
	}
	p.report(call.Pos(), "error result of %s is silently discarded: handle it or assign to _ with a reason", name)
}

// isSafeFprint allows fmt.Fprint* except when the destination is a concrete
// file other than the std streams: report formatters write to injected
// io.Writers and terminals, where a failed print is not actionable, but a
// print into an *os.File is producing an artifact whose write errors must
// not vanish.
func isSafeFprint(info *types.Info, f *types.Func, call *ast.CallExpr) bool {
	if f.Pkg() == nil || f.Pkg().Path() != "fmt" || !strings.HasPrefix(f.Name(), "Fprint") {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	w := ast.Unparen(call.Args[0])
	tv, ok := info.Types[w]
	if !ok {
		return false
	}
	if !typeIs(tv.Type, "os", "File") {
		return true // interface writer, buffer, tabwriter, ...
	}
	sel, ok := w.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return false
	}
	return obj.Name() == "Stdout" || obj.Name() == "Stderr"
}

// recvTypeString returns the static receiver type at the call site (which,
// unlike the method's declared receiver, reflects the interface the caller
// holds — e.g. hash.Hash64 rather than io.Writer for an embedded Write).
func recvTypeString(info *types.Info, call *ast.CallExpr, f *types.Func) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok {
			return s.Recv().String()
		}
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return sig.Recv().Type().String()
	}
	return ""
}

// shortFuncName renders "pkg.Func" or "Type.Method" for diagnostics.
func shortFuncName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type().String()
		if i := strings.LastIndexAny(t, "./"); i >= 0 {
			t = t[i+1:]
		}
		return t + "." + f.Name()
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}
