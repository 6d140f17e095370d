package server

import "readpath/transport"

// Tests drive handlers with hand-built requests: exempt.
func handBuilt() *transport.Message {
	return &transport.Message{Kind: transport.MsgGet, Key: "k"}
}
