package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// wiremsg cross-checks the wire protocol's message plumbing. Adding a Kind
// constant in the transport package is a four-site change — the constant,
// its kindNames entry (String()), the server dispatch switch, and, for new
// Message fields, the Encode/Decode codec — and forgetting any one of them
// produces a protocol that compiles but silently misroutes or truncates.
//
// Checks, anchored on the package named "transport":
//  1. Every constant of type Kind whose name starts with "Msg" (kindCount
//     sentinel excluded) has a kindNames entry equal to its name with the
//     "Msg" prefix stripped, and kindNames has exactly kindCount entries.
//  2. Every non-response kind appears as a case in the dispatch switch of
//     the Handle method in the package named "server". Response-only kinds
//     (MsgOK, MsgErr, MsgGetBytes) are exempt.
//  3. Every field of the Message struct is referenced in both Encode and
//     Decode, so new wire fields cannot skip the codec. A field that is
//     local to one process by design says so with a `wire:"-"` struct tag,
//     and the check turns around: the codec must not touch it.
var wiremsg = Analyzer{
	Name:    "wiremsg",
	Doc:     "every wire message kind is named, dispatched, and codec-covered",
	covers:  only("transport", "server"),
	program: checkWire,
}

// wiremsgResponseOnly are kinds servers emit but never receive; they have
// no dispatch case by design.
var wiremsgResponseOnly = map[string]bool{
	"MsgOK":       true,
	"MsgErr":      true,
	"MsgGetBytes": true,
}

func checkWire(p *pass, pkgs map[string]*Package) {
	transportPkg, serverPkg := pkgs["transport"], pkgs["server"]
	if transportPkg == nil {
		return // protocol package not in this load; nothing to check
	}
	kinds, sentinel := collectKinds(transportPkg)
	if len(kinds) == 0 {
		return
	}
	checkKindNames(p, transportPkg, kinds, sentinel)
	if serverPkg != nil {
		checkDispatch(p, transportPkg, serverPkg, kinds)
	}
	checkCodec(p, transportPkg)
}

// kindConst is one Msg* constant of the Kind type.
type kindConst struct {
	name  string
	value int64
	obj   *types.Const
}

// collectKinds gathers the Msg*-prefixed constants of the transport Kind
// type plus the value of the kindCount sentinel (-1 when absent).
func collectKinds(pkg *Package) ([]kindConst, int64) {
	var kinds []kindConst
	sentinel := int64(-1)
	scope := pkg.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !typeIs(c.Type(), pkg.Path, "Kind") {
			continue
		}
		v, exact := constant.Int64Val(c.Val())
		if !exact {
			continue
		}
		if name == "kindCount" {
			sentinel = v
			continue
		}
		if strings.HasPrefix(name, "Msg") {
			kinds = append(kinds, kindConst{name: name, value: v, obj: c})
		}
	}
	return kinds, sentinel
}

// checkKindNames verifies the kindNames array used by Kind.String().
func checkKindNames(p *pass, pkg *Package, kinds []kindConst, sentinel int64) {
	lit := findVarCompositeLit(pkg, "kindNames")
	if lit == nil {
		p.report(kinds[0].obj.Pos(), "transport package has no kindNames composite literal for Kind.String()")
		return
	}
	if sentinel >= 0 && int64(len(lit.Elts)) != sentinel {
		p.report(lit.Pos(), "kindNames has %d entries but kindCount is %d: every Kind needs a String() name",
			len(lit.Elts), sentinel)
	}
	byValue := make(map[int64]kindConst, len(kinds))
	for _, k := range kinds {
		byValue[k.value] = k
	}
	for i, el := range lit.Elts {
		bl, ok := el.(*ast.BasicLit)
		if !ok {
			continue
		}
		got := strings.Trim(bl.Value, `"`)
		k, ok := byValue[int64(i)]
		if !ok {
			continue // covered by the count check
		}
		if want := strings.TrimPrefix(k.name, "Msg"); got != want {
			p.report(el.Pos(), "kindNames[%d] is %q but the constant at value %d is %s (want %q)", i, got, i, k.name, want)
		}
	}
}

// findVarCompositeLit locates the composite literal initializing the named
// package-level variable.
func findVarCompositeLit(pkg *Package, name string) *ast.CompositeLit {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if id.Name != name || i >= len(vs.Values) {
						continue
					}
					if cl, ok := vs.Values[i].(*ast.CompositeLit); ok {
						return cl
					}
				}
			}
		}
	}
	return nil
}

// checkDispatch verifies every non-response kind has a case in the server's
// Handle dispatch switch.
func checkDispatch(p *pass, transportPkg, serverPkg *Package, kinds []kindConst) {
	dispatched := make(map[string]bool)
	found := false
	for _, f := range serverPkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Handle" || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				tv, ok := serverPkg.Info.Types[sw.Tag]
				if !ok || !typeIs(tv.Type, transportPkg.Path, "Kind") {
					return true
				}
				found = true
				for _, c := range sw.Body.List {
					cc, ok := c.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if c := constOf(serverPkg.Info, e); c != nil {
							dispatched[c.Name()] = true
						}
					}
				}
				return true
			})
		}
	}
	if !found {
		p.report(serverPkg.Files[0].Pos(), "server package has no Handle method switching on transport.Kind")
		return
	}
	for _, k := range kinds {
		if !wiremsgResponseOnly[k.name] && !dispatched[k.name] {
			p.report(k.obj.Pos(), "message kind %s has no case in the server Handle dispatch switch", k.name)
		}
	}
}

// constOf resolves an identifier or a selector to the constant it denotes,
// nil when it denotes anything else.
func constOf(info *types.Info, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil
	}
	c, _ := info.Uses[id].(*types.Const)
	return c
}

// checkCodec verifies every Message struct field is touched by both Encode
// and Decode — or, when tagged `wire:"-"`, by neither.
func checkCodec(p *pass, pkg *Package) {
	msgObj, ok := pkg.Pkg.Scope().Lookup("Message").(*types.TypeName)
	if !ok {
		return
	}
	st, ok := msgObj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	fields := make([]string, 0, st.NumFields())
	local := make(map[string]bool)
	for i := 0; i < st.NumFields(); i++ {
		fields = append(fields, st.Field(i).Name())
		if reflect.StructTag(st.Tag(i)).Get("wire") == "-" {
			local[st.Field(i).Name()] = true
		}
	}
	for _, fnName := range []string{"Encode", "Decode"} {
		fd := findFuncDecl(pkg, fnName)
		if fd == nil {
			p.report(pkg.Files[0].Pos(), "transport package has no %s function covering Message", fnName)
			continue
		}
		touched := fieldsTouched(pkg, fd, msgObj.Type())
		for _, f := range fields {
			pos, ok := touched[f]
			switch {
			case local[f] && ok:
				p.report(pos, "Message field %s is tagged wire:\"-\" but %s references it: a process-local field must stay out of the codec", f, fnName)
			case !local[f] && !ok:
				p.report(fd.Name.Pos(), "Message field %s is not referenced in %s: wire plumbing incomplete", f, fnName)
			}
		}
	}
}

func findFuncDecl(pkg *Package, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name && fd.Body != nil {
				return fd
			}
		}
	}
	return nil
}

// fieldsTouched collects the field names selected from any expression of
// the Message type within the function body, each with the position of its
// first reference.
func fieldsTouched(pkg *Package, fd *ast.FuncDecl, msgType types.Type) map[string]token.Pos {
	out := make(map[string]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[sel.X]
		if !ok {
			return true
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if _, seen := out[sel.Sel.Name]; !seen && types.Identical(t, msgType) {
			out[sel.Sel.Name] = sel.Sel.Pos()
		}
		return true
	})
	return out
}
