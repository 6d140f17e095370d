// Package transport is the readpath fixture protocol: four read request
// kinds, one write kind, and the message that carries them.
package transport

// Kind enumerates fixture message types.
type Kind uint8

const (
	MsgPut Kind = iota
	MsgGet
	MsgShardGet
	MsgMetaLookup
	MsgMetaQuery
)

// Message is the fixture wire struct.
type Message struct {
	Kind Kind
	Key  string
	Var  string
}

// probe builds a read request inside the protocol package itself: still not
// the reader.
func probe() *Message {
	return &Message{Kind: MsgGet} // want `MsgGet request built outside the reader package`
}
