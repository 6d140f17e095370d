// Package reader is the one place read requests are built: no findings.
package reader

import "readpath/transport"

// Requests builds every read request kind.
func Requests(key string) []*transport.Message {
	return []*transport.Message{
		{Kind: transport.MsgGet, Key: key},
		{Kind: transport.MsgShardGet, Key: key},
		{Kind: transport.MsgMetaLookup, Key: key},
		{Kind: transport.MsgMetaQuery, Var: key},
	}
}
