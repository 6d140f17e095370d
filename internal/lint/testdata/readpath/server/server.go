// Package server writes its own read loop, which is what the analyzer is
// there to stop; building other requests, and naming the kinds without
// building a message, stays free.
package server

import "readpath/transport"

func fetchShard(key string) *transport.Message {
	return &transport.Message{
		Kind: transport.MsgShardGet, // want `MsgShardGet request built outside the reader package`
		Key:  key,
	}
}

func lookups(key string) []transport.Message {
	return []transport.Message{
		{Kind: transport.MsgMetaLookup, Key: key}, // want `MsgMetaLookup request built outside the reader package`
		{Kind: (transport.MsgGet)},                // want `MsgGet request built outside the reader package`
		{Kind: transport.MsgPut, Key: key},
	}
}

// sweep reads every member's directory shard by hand: the merge the reader
// owns would be written again here.
func sweep(members []string) []*transport.Message {
	var out []*transport.Message
	for range members {
		out = append(out, &transport.Message{Kind: transport.MsgMetaQuery}) // want `MsgMetaQuery request built outside the reader package`
	}
	return out
}

func dispatch(req *transport.Message) bool {
	switch req.Kind {
	case transport.MsgGet, transport.MsgShardGet:
		return true
	}
	return req.Kind == transport.MsgMetaLookup || req.Kind == transport.MsgMetaQuery
}
