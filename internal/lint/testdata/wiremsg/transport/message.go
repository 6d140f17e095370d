// Package transport is the wiremsg fixture protocol: a Kind enum with one
// missing dispatch case, a kindNames array that is both short and
// misspelled, and a codec that forgets a Message field in Decode, leaves a
// declared process-local field alone as it should, and leaks another.
package transport

// Kind enumerates fixture message types.
type Kind uint8

const (
	MsgOK Kind = iota
	MsgErr
	MsgPing
	MsgDrop // want `message kind MsgDrop has no case in the server Handle dispatch switch`
	MsgGetBytes
	kindCount // sentinel; keep last
)

var kindNames = [...]string{ // want `kindNames has 4 entries but kindCount is 5`
	"OK", "Err", "Ping",
	"Dropp", // want `kindNames\[3\] is "Dropp" but the constant at value 3 is MsgDrop \(want "Drop"\)`
}

// String implements fmt.Stringer.
func (k Kind) String() string { return kindNames[k] }

// Message is the fixture wire struct.
type Message struct {
	Kind Kind
	Key  string
	Data []byte
	// RecvInto is process-local and the codec never touches it: no finding.
	RecvInto []byte `wire:"-"`
	// verified is process-local too, but Encode leaks it.
	verified bool `wire:"-"`
	// note carries a tag of some other key: still a wire field.
	note string `json:"note"`
}

// Encode covers every wire field, and one it must not.
func Encode(m *Message, buf []byte) []byte {
	buf = append(buf, byte(m.Kind))
	buf = append(buf, m.Key...)
	buf = append(buf, m.Data...)
	buf = append(buf, m.note...)
	if m.verified { // want `Message field verified is tagged wire:"-" but Encode references it`
		buf = append(buf, 1)
	}
	return buf
}

// Decode forgets the Data and note fields.
func Decode(buf []byte) (*Message, error) { // want `Message field Data is not referenced in Decode` `Message field note is not referenced in Decode`
	m := &Message{}
	m.Kind = Kind(buf[0])
	m.Key = string(buf[1:])
	return m, nil
}
