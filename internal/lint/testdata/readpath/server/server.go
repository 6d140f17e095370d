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

func dispatch(req *transport.Message) bool {
	switch req.Kind {
	case transport.MsgGet, transport.MsgShardGet:
		return true
	}
	return req.Kind == transport.MsgMetaLookup
}
