package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the shared FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one check. Run walks the program once and hands each covered
// package's nodes to the hooks an analyzer sets; it sets only those it needs.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //lint:ignore lines.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// covers says by package name which packages the hooks see; nil covers
	// every package.
	covers func(pkgName string) bool
	// node sees every node of a covered package's files.
	node func(p *pass, n ast.Node)
	// body sees each function body once: a declared function's, or a func
	// literal's, which is a unit of its own unless a body hook walked it as
	// part of the body that calls it in place (pass.inlined).
	body func(p *pass, body *ast.BlockStmt)
	// program sees all covered packages at once, keyed by package name.
	program func(p *pass, pkgs map[string]*Package)
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{locksafe, wiremsg, detrand, droppederr, mapsort, readpath}
}

// only covers the packages with the given names.
func only(names ...string) func(string) bool {
	return func(name string) bool { return slices.Contains(names, name) }
}

func (a *Analyzer) covered(pkgName string) bool {
	return a.covers == nil || a.covers(pkgName)
}

// pass is what a hook sees: the package under analysis (nil for a program
// hook) and report, the one path a finding takes out.
type pass struct {
	*Package
	a     *Analyzer
	diags *[]Diagnostic
	// inlined holds the func literals a body hook analyzed as part of the
	// body that calls them in place; the walk does not visit them again.
	inlined map[*ast.FuncLit]bool
}

// report records a finding at pos under the analyzer's name.
func (p *pass) report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Analyzer: p.a.Name, Message: fmt.Sprintf(format, args...)})
}

// visit dispatches one node to the analyzer's node and body hooks.
func (p *pass) visit(n ast.Node) {
	if p.a.node != nil {
		p.a.node(p, n)
	}
	if p.a.body == nil {
		return
	}
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Body != nil {
			p.a.body(p, n.Body)
		}
	case *ast.FuncLit:
		if !p.inlined[n] {
			p.a.body(p, n.Body)
		}
	}
}

// IgnoreDirective is a parsed //lint:ignore comment.
type IgnoreDirective struct {
	Pos      token.Pos
	Analyzer string
	Reason   string
	used     bool
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts //lint:ignore directives from a file. Malformed
// directives (missing analyzer or reason) are reported as diagnostics under
// the pseudo-analyzer "lint" so they cannot silently disable nothing.
func parseIgnores(f *ast.File) (dirs []*IgnoreDirective, bad []Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:ignoreXYZ — not ours
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				bad = append(bad, Diagnostic{
					Pos:      c.Pos(),
					Analyzer: "lint",
					Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer> <reason>\"",
				})
				continue
			}
			dirs = append(dirs, &IgnoreDirective{
				Pos:      c.Pos(),
				Analyzer: fields[0],
				Reason:   strings.Join(fields[1:], " "),
			})
		}
	}
	return dirs, bad
}

// Run walks each package's non-test files once, handing every node to the
// hooks of the analyzers that cover the package, then runs the program
// hooks. It applies //lint:ignore suppressions and returns the surviving
// diagnostics sorted by position.
// A suppression matches a diagnostic from the named analyzer on the same
// line or the line directly below the directive (i.e. the directive sits on
// the flagged line or on its own line above). Suppressions that match
// nothing are themselves reported.
func Run(prog *Program, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	known := make(map[string]bool, len(analyzers))
	for i := range analyzers {
		known[analyzers[i].Name] = true
	}
	for _, pkg := range prog.Packages {
		var passes []*pass
		for i := range analyzers {
			if a := &analyzers[i]; a.covered(pkg.Name) {
				passes = append(passes, &pass{Package: pkg, a: a, diags: &diags, inlined: make(map[*ast.FuncLit]bool)})
			}
		}
		for _, f := range pkg.Files {
			if strings.HasSuffix(prog.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue // tests break the rules on purpose
			}
			ast.Inspect(f, func(n ast.Node) bool {
				for _, p := range passes {
					p.visit(n)
				}
				return true
			})
		}
	}
	for i := range analyzers {
		a := &analyzers[i]
		if a.program == nil {
			continue
		}
		pkgs := make(map[string]*Package)
		for _, pkg := range prog.Packages {
			if a.covered(pkg.Name) {
				pkgs[pkg.Name] = pkg
			}
		}
		a.program(&pass{a: a, diags: &diags}, pkgs)
	}

	var dirs []*IgnoreDirective
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			d, bad := parseIgnores(f)
			dirs = append(dirs, d...)
			diags = append(diags, bad...)
		}
	}
	// Index directives by (file, line) for the two lines they may cover.
	type lineKey struct {
		file string
		line int
		name string
	}
	byLine := make(map[lineKey]*IgnoreDirective)
	for _, d := range dirs {
		p := prog.Fset.Position(d.Pos)
		byLine[lineKey{p.Filename, p.Line, d.Analyzer}] = d
		byLine[lineKey{p.Filename, p.Line + 1, d.Analyzer}] = d
	}
	var out []Diagnostic
	for _, dg := range diags {
		p := prog.Fset.Position(dg.Pos)
		if d, ok := byLine[lineKey{p.Filename, p.Line, dg.Analyzer}]; ok {
			d.used = true
			continue
		}
		out = append(out, dg)
	}
	for _, d := range dirs {
		if d.used {
			continue
		}
		msg := fmt.Sprintf("//lint:ignore %s suppresses no diagnostic; remove it", d.Analyzer)
		if !known[d.Analyzer] {
			msg = fmt.Sprintf("//lint:ignore names unknown analyzer %q", d.Analyzer)
		}
		out = append(out, Diagnostic{Pos: d.Pos, Analyzer: "lint", Message: msg})
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := prog.Fset.Position(out[i].Pos), prog.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// --- shared type helpers ---

// calleeFunc resolves the static *types.Func a call invokes, or nil when
// the callee is dynamic (a func-typed variable, field, parameter or
// result), a conversion, or a builtin.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Qualified identifier pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcPath renders a *types.Func as "pkg/path.Name" for package functions
// or "(recv).Name" / "(*recv).Name" with the receiver's full path for
// methods. Interface methods render with the interface's path.
func funcPath(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if f.Pkg() == nil {
			return f.Name()
		}
		return f.Pkg().Path() + "." + f.Name()
	}
	return "(" + sig.Recv().Type().String() + ")." + f.Name()
}

// isDynamicCall reports whether the call invokes a func value (callback)
// rather than a declared function, method, conversion, builtin or literal
// called in place.
func isDynamicCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if _, ok := fun.(*ast.FuncLit); ok {
		return false // executes inline; the body is analyzed in place
	}
	if tv, ok := info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return false
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		switch info.Uses[fn].(type) {
		case *types.Func:
			return false
		case *types.Var:
			return true
		}
		return false
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			_, isVar := sel.Obj().(*types.Var)
			return isVar // func-typed struct field
		}
		_, isVar := info.Uses[fn.Sel].(*types.Var)
		return isVar // pkg-level func var
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Generic instantiation f[T](...) or call of an indexed func value.
		if tv, ok := info.Types[fun]; ok {
			_, isSig := tv.Type.Underlying().(*types.Signature)
			return isSig && !tv.IsType()
		}
	}
	return false
}

// namedOrPtrTo unwraps one pointer level and returns the *types.Named
// beneath, or nil.
func namedOrPtrTo(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// typeIs reports whether t (possibly behind one pointer) is the named type
// pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedOrPtrTo(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name {
		return false
	}
	if obj.Pkg() == nil {
		return pkgPath == ""
	}
	return obj.Pkg().Path() == pkgPath
}

// returnsError reports whether the call's result type is or contains error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}
