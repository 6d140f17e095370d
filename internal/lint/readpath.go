package lint

import (
	"go/ast"
	"go/types"
)

// readpath keeps the read side of the protocol in one place. Finding an
// object's record, fetching a copy or a stripe's shards and reconstructing
// what is missing used to be written out by hand in the client, in recovery,
// in promotion and in each scrub repair, and only one of the copies ever got
// the known-loss planning and the in-place assembly. Directory records were
// read and merged four ways too: a record's mirrors, a region query, the
// rebalancer's sweep and recovery's rebuild. The reader package owns that
// protocol now, and the way another hand-written loop would come back is by
// building one of its request messages somewhere else.
//
// readpath flags a transport.Message composite literal whose Kind is MsgGet,
// MsgShardGet, MsgMetaLookup or MsgMetaQuery anywhere but in the package
// named "reader".
var readpath = Analyzer{
	Name:   "readpath",
	Doc:    "object, shard, record and directory read requests are built in the reader package only",
	covers: func(name string) bool { return name != "reader" },
	node:   readRequest,
}

// readpathKinds are the request kinds only the reader may construct.
var readpathKinds = map[string]bool{
	"MsgGet": true, "MsgShardGet": true, "MsgMetaLookup": true, "MsgMetaQuery": true,
}

func readRequest(p *pass, n ast.Node) {
	lit, ok := n.(*ast.CompositeLit)
	if !ok || !isTransportMessage(p.Info.TypeOf(lit)) {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Kind" {
			continue
		}
		c := constOf(p.Info, kv.Value)
		if c != nil && c.Pkg() != nil && c.Pkg().Name() == "transport" && readpathKinds[c.Name()] {
			p.report(kv.Pos(), "%s request built outside the reader package: read staged data through internal/reader", c.Name())
		}
	}
}

// isTransportMessage reports whether t is the Message struct of a package
// named transport.
func isTransportMessage(t types.Type) bool {
	n := namedOrPtrTo(t)
	return n != nil && n.Obj().Name() == "Message" && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "transport"
}
