package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// mapsort flags map iterations whose accumulated results escape the
// function — returned, stored into a struct field (wire responses), passed
// to another call, or sent on a channel — without an intervening sort. Go
// randomizes map iteration order on purpose, so any such slice makes wire
// output, placement decisions, checkpoint streams and test expectations
// nondeterministic. The fix is mechanical: sort the slice before it
// escapes, or iterate `sortedKeys(m)` instead of the map.
//
// The analyzer looks for `x = append(x, ...)` inside a `for ... range m`
// where m is a map. The append target then needs a sort.*/slices.* call
// naming it after the loop, unless it never escapes (pure counting or
// re-keying into another map is fine). Escapes are: return statements,
// call arguments (append/len/cap/copy/delete excluded), assignments into
// fields or indexed elements, and channel sends.
var mapsort = Analyzer{
	Name: "mapsort",
	Doc:  "map-iteration results must be sorted before feeding output or decisions",
	body: checkMapRanges,
}

// appendTarget is one `x = append(x, ...)` accumulation inside a map range.
type appendTarget struct {
	expr string       // printed target ("resp.Metas", "items")
	obj  types.Object // non-nil for plain local/package vars
	pos  ast.Node
	rng  *ast.RangeStmt
}

func checkMapRanges(p *pass, body *ast.BlockStmt) {
	pkg := p.Package
	var targets []appendTarget
	inspectUnit(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		inspectUnit(rng.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isAppendCall(pkg, call) || len(call.Args) == 0 {
				return true
			}
			lhs := ast.Unparen(as.Lhs[0])
			if exprString(lhs) != exprString(ast.Unparen(call.Args[0])) {
				return true
			}
			t := appendTarget{expr: exprString(lhs), pos: as, rng: rng}
			if id, ok := lhs.(*ast.Ident); ok {
				t.obj = identObj(pkg.Info, id)
			}
			targets = append(targets, t)
			return true
		})
		return true
	})

	seen := make(map[string]bool)
	for _, t := range targets {
		if seen[t.expr] {
			continue
		}
		seen[t.expr] = true
		sink := mapsortSink(pkg, body, t)
		if sink == "" {
			continue
		}
		if sortedAfter(pkg, body, t) {
			continue
		}
		p.report(t.pos.Pos(), "%s accumulates map-iteration order and is %s without a sort: iteration order is random",
			t.expr, sink)
	}
}

// inspectUnit is ast.Inspect that does not descend into nested func
// literals (they are separate analysis units).
func inspectUnit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

func isAppendCall(pkg *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok {
		return tv.IsBuiltin()
	}
	return false
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// mentionsTarget reports whether e contains the target: by object identity
// for plain vars, by printed form for selector targets.
func mentionsTarget(pkg *Package, e ast.Expr, t appendTarget) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if t.obj != nil && identObj(pkg.Info, n) == t.obj {
				found = true
			}
		case *ast.SelectorExpr:
			if t.obj == nil && exprString(n) == t.expr {
				found = true
			}
		}
		return !found
	})
	return found
}

// mapsortSink classifies how the accumulated slice escapes the function, or
// returns "" when it never does. Selector targets (struct fields) are
// escapes by construction: the field outlives the function.
func mapsortSink(pkg *Package, body *ast.BlockStmt, t appendTarget) string {
	if t.obj == nil {
		return "stored in a field"
	}
	sink := ""
	inspectUnit(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if mentionsTarget(pkg, r, t) {
					sink = "returned"
				}
			}
		case *ast.SendStmt:
			if mentionsTarget(pkg, n.Value, t) {
				sink = "sent on a channel"
			}
		case *ast.CallExpr:
			if isExemptCall(pkg, n) {
				return true
			}
			for _, a := range n.Args {
				if mentionsTarget(pkg, a, t) {
					sink = "passed to a call"
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && mentionsTarget(pkg, n.Rhs[i], t) {
					switch ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						sink = "stored in a field"
					}
				}
			}
		}
		return true
	})
	return sink
}

// isExemptCall reports calls that are not escapes: the append itself,
// length/capacity probes, in-place helpers, and the sort calls handled by
// sortedAfter.
func isExemptCall(pkg *Package, call *ast.CallExpr) bool {
	if f := calleeFunc(pkg.Info, call); f != nil && isSortFunc(f) {
		return true
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	switch id.Name {
	case "append", "len", "cap", "copy", "delete", "make", "new":
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsBuiltin() {
			return true
		}
	}
	return false
}

// isSortFunc accepts the sort and slices packages plus project-local sort
// helpers by naming convention (sortCandidates, sortedKeys, ...): a helper
// that takes the slice and sorts it in place is as good as sort.Slice.
func isSortFunc(f *types.Func) bool {
	if strings.HasPrefix(f.Name(), "sort") || strings.HasPrefix(f.Name(), "Sort") {
		return true
	}
	if f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return false
}

// sortedAfter reports whether a sort.*/slices.* call naming the target
// appears after the map range in the same unit.
func sortedAfter(pkg *Package, body *ast.BlockStmt, t appendTarget) bool {
	sorted := false
	inspectUnit(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < t.rng.End() {
			return true
		}
		f := calleeFunc(pkg.Info, call)
		if f == nil || !isSortFunc(f) {
			return true
		}
		for _, a := range call.Args {
			if mentionsTarget(pkg, a, t) {
				sorted = true
			}
		}
		return true
	})
	return sorted
}
