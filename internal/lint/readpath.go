package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Readpath keeps the read side of the protocol in one place. Finding an
// object's record, fetching a copy or a stripe's shards and reconstructing
// what is missing used to be written out by hand in the client, in recovery,
// in promotion and in each scrub repair, and only one of the copies ever got
// the known-loss planning and the in-place assembly. Directory records were
// read and merged four ways too: a record's mirrors, a region query, the
// rebalancer's sweep and recovery's rebuild. The reader package owns that
// protocol now, and the way another hand-written loop would come back is by
// building one of its request messages somewhere else.
//
// Readpath flags a transport.Message composite literal whose Kind is MsgGet,
// MsgShardGet, MsgMetaLookup or MsgMetaQuery anywhere but in the package
// named "reader". Files named *_test.go are exempt: tests drive handlers
// with hand-built requests on purpose.
type Readpath struct{}

// readpathKinds are the request kinds only the reader may construct.
var readpathKinds = map[string]bool{
	"MsgGet": true, "MsgShardGet": true, "MsgMetaLookup": true, "MsgMetaQuery": true,
}

// Name implements Analyzer.
func (Readpath) Name() string { return "readpath" }

// Doc implements Analyzer.
func (Readpath) Doc() string {
	return "object, shard, record and directory read requests are built in the reader package only"
}

// Run implements Analyzer.
func (Readpath) Run(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		if pkg.Name == "reader" {
			continue
		}
		for _, f := range pkg.Files {
			if strings.HasSuffix(prog.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !isTransportMessage(pkg.Info.TypeOf(lit)) {
					return true
				}
				for _, elt := range lit.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Kind" {
						continue
					}
					c := constOf(pkg.Info, kv.Value)
					if c == nil || c.Pkg() == nil || c.Pkg().Name() != "transport" {
						continue
					}
					if name := c.Name(); readpathKinds[name] {
						diags = append(diags, Diagnostic{
							Pos:      kv.Pos(),
							Analyzer: "readpath",
							Message:  fmt.Sprintf("%s request built outside the reader package: read staged data through internal/reader", name),
						})
					}
				}
				return true
			})
		}
	}
	return diags
}

// isTransportMessage reports whether t is the Message struct of a package
// named transport.
func isTransportMessage(t types.Type) bool {
	n := namedOrPtrTo(t)
	return n != nil && n.Obj().Name() == "Message" && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "transport"
}
