// Package transport carries the staging protocol between clients and
// servers. Two interchangeable fabrics are provided: an in-process network
// (goroutine handlers plus a simnet link model, standing in for RDMA within
// one experiment process) and a TCP network (checked two-segment frames, see
// tcp.go, for the standalone corec-server deployment).
//
// All protocol messages share the Message superset struct so one binary
// codec covers the whole protocol; unused fields cost nothing on the wire
// thanks to presence flags.
package transport

import (
	"context"
	"errors"
	"fmt"

	"corec/internal/geometry"
	"corec/internal/scrub"
	"corec/internal/types"
)

// Kind enumerates protocol message types.
type Kind uint8

// Protocol message kinds. Request kinds are grouped by subsystem; OK and Err
// are the generic responses.
const (
	// Generic responses.
	MsgOK Kind = iota
	MsgErr

	// Client data plane.
	MsgPut      // store an object (Var, Box, Version, Data)
	MsgGet      // fetch an object by exact identity (Var, Box, Version)
	MsgGetBytes // response carrier: Data holds the payload
	MsgDelete   // evict an object: drop copies, shards and metadata (Key)

	// Replication plane.
	MsgReplicaPut  // store a replica copy
	MsgReplicaDrop // drop a replica after an encode transition

	// Erasure plane.
	MsgShardPut       // store one stripe shard (Stripe, ShardIndex, Data)
	MsgShardGet       // fetch one stripe shard
	MsgShardDrop      // drop one stripe shard (hybrid churn, promotions)
	MsgEncodeDelegate // hand an object's encoding task to the helper server (Key)

	// Metadata plane.
	MsgMetaUpdate // upsert an ObjectMeta record
	MsgMetaLookup // fetch ObjectMeta by Key
	MsgMetaQuery  // fetch the shard's ObjectMeta for Var intersecting Box (all of Var's when Box is invalid; the whole shard when Var is empty too)
	MsgMetaDelete // remove an ObjectMeta record
	// MsgStripeLookup asks a server for the layout of a stripe it holds a
	// shard of (Flag false when it holds none). Nothing in the product sends
	// it — a layout rides its object's record — but the frozen benchmark
	// names the kind; it goes when bench/ is next unfrozen.
	MsgStripeLookup

	// Coordination plane.
	MsgTokenAcquire // request the replication group's encoding token
	MsgTokenRelease // return the encoding token
	MsgLoadQuery    // ask a server for its current load level
	MsgPing         // liveness probe
	MsgRecover      // instruct a server to recover its piece of an object (Var, Box; Meta: the record to restore by, Sum: a rotted shard's digest; with Metas = the record a membership edit was made from, the edited record's primary carries the edit out)
	MsgStats        // ask a server for its status report (JSON in Data)

	// Membership plane (SWIM-style gossip; payloads in Data carry the
	// membership package's own update codec, piggybacked on every probe).
	MsgPingReq // indirect probe: ask the receiver to ping server Num for us
	MsgGossip  // membership update exchange (Flag = pull a full snapshot)
	MsgHandoff // old primary's release after a membership edit moved Key (Version, Num = Seq of the record acted on, Meta = the new primary's record, whose pieces it keeps)

	// Fleet control plane: every Cluster fleet verb, in-process or across
	// processes, is one of these (plus MsgStats) sent to each member.
	MsgStepEnd    // run end-of-step processing for time step Version on the receiver
	MsgRecoverAll // run full replacement-server recovery (Num = recovery.Mode)
	MsgScrub      // run one anti-entropy pass at depth Num (scrub.Depth); the scrub.Report comes back as JSON in Data

	kindCount // sentinel; keep last
)

var kindNames = [...]string{
	"OK", "Err", "Put", "Get", "GetBytes", "Delete",
	"ReplicaPut", "ReplicaDrop",
	"ShardPut", "ShardGet", "ShardDrop", "EncodeDelegate",
	"MetaUpdate", "MetaLookup", "MetaQuery", "MetaDelete", "StripeLookup",
	"TokenAcquire", "TokenRelease", "LoadQuery", "Ping", "Recover", "Stats",
	"PingReq", "Gossip", "Handoff",
	"StepEnd", "RecoverAll", "Scrub",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is the protocol superset: each kind uses the subset of fields it
// needs and leaves the rest zero.
type Message struct {
	Kind    Kind
	From    types.ServerID
	Var     string
	Box     geometry.Box
	Version types.Version
	Data    []byte
	Key     string
	Stripe  types.StripeID
	// ShardIndex is the shard slot within Stripe for shard messages.
	ShardIndex int
	Meta       *types.ObjectMeta
	Metas      []types.ObjectMeta
	StripeInfo *types.StripeInfo
	// Flag is a general boolean (e.g. token granted, object found).
	Flag bool
	// Num is a general integer (e.g. load level).
	Num int64
	// Sum is the digest of the shard a MsgRecover's sender found
	// inconsistent with its stripe (0: none).
	Sum uint64
	Err string

	// The fields below are local to one process: the `wire:"-"` tag keeps
	// them out of the codec (corec-lint's wiremsg check enforces both
	// directions).

	// RecvInto, set on a request, is caller memory for the response's Data:
	// the payload's first len(RecvInto) bytes land there — on the TCP fabric
	// straight off the socket — and the response's Data is that prefix of
	// RecvInto; payload bytes past it come back in Overflow. The one
	// invariant: the fabric writes RecvInto only between Send's call and its
	// return, whatever the outcome; after an error its contents are
	// unspecified.
	RecvInto []byte `wire:"-"`
	// Overflow, on the response to a request that named RecvInto, holds the
	// payload bytes that did not fit (nil when all did).
	Overflow []byte `wire:"-"`
	// Buf is the pooled Buffer Data lives in (nil: Data belongs to the GC).
	// A message the fabric delivers, and a response a handler returns, carry
	// one hold of it; a request a sender builds only names it, its sender
	// keeping Data alive for the length of Send. See buffers.go for who lets
	// go of what.
	Buf *Buffer `wire:"-"`
	// sum vouches for Data as src says: the sender's at-rest digest, or the
	// digest a server's frame reader computed over the bytes it delivered.
	sum uint64    `wire:"-"`
	src sumSource `wire:"-"`
}

// sumSource says what vouches for Message.sum.
type sumSource uint8

const (
	sumUnknown     sumSource = iota
	sumAttached              // the sender holds Data's digest (AttachDigest)
	digestVerified           // a server's frame reader computed the digest over the bytes it delivered
)

// AttachDigest tells the fabric that sum is the at-rest digest
// (scrub.Checksum) the sender holds for Data, so the frame writer takes the
// payload check from it instead of making a pass over the bytes. The zero
// sum, "not recorded", attaches nothing. The receiver still computes the
// check over what arrives: a stored copy that rotted since it was digested
// fails there exactly like wire damage.
func (m *Message) AttachDigest(sum uint64) {
	if _, ok := scrub.WireCheck(sum); ok {
		m.sum, m.src = sum, sumAttached
	}
}

// VerifiedDigest returns the at-rest digest (scrub.Checksum) of Data when a
// TCP server's frame reader took it over the bytes as they landed, and their
// CRC-32C half matched the sender's check. A server that stores Data records
// it as the copy's digest and reads the bytes no more: the digest was
// computed by this process, over the memory it keeps. A digest the sender
// merely attached is never reported: on the in-process fabric, which hands
// messages over by reference, nothing has verified it.
func (m *Message) VerifiedDigest() (sum uint64, ok bool) {
	return m.sum, m.src == digestVerified
}

// Ok returns the generic success response.
func Ok() *Message { return &Message{Kind: MsgOK} }

// Errf returns an error response with a formatted message.
func Errf(format string, args ...any) *Message {
	return &Message{Kind: MsgErr, Err: fmt.Sprintf(format, args...)}
}

// AsError converts an MsgErr response into a Go error; any other kind maps
// to nil. Responses flagged retryable by the peer (Flag set on MsgErr, e.g.
// a corrupt request frame the server detected) wrap ErrRemoteRetryable so
// the retry layer resends them.
func (m *Message) AsError() error {
	if m != nil && m.Kind == MsgErr {
		if m.Flag {
			return fmt.Errorf("%w: %s", ErrRemoteRetryable, m.Err)
		}
		return errors.New(m.Err)
	}
	return nil
}

// WireSize returns len(Encode(m, nil)) without encoding: the link model
// charges bandwidth by it and the frame writer sizes its scratch buffer from
// it (a frame's meta segment is WireSize less the Data field). The terms
// mirror the field walk in wire.go; TestWireSizeExact holds them to it.
func (m *Message) WireSize() int {
	// Fixed-width fields and length prefixes of Encode's walk, then the
	// variable parts.
	s := 81 + len(m.Var) + boxWireSize(m.Box) + len(m.Data) + len(m.Key) + len(m.Err)
	if m.Meta != nil {
		s += metaWireSize(m.Meta)
	}
	for i := range m.Metas {
		s += metaWireSize(&m.Metas[i])
	}
	if m.StripeInfo != nil {
		s += stripeWireSize(m.StripeInfo)
	}
	return s
}

// dataFieldSize is what the Data field adds to Encode's output.
func (m *Message) dataFieldSize() int { return 4 + len(m.Data) }

func boxWireSize(b geometry.Box) int { return 16 * b.Dims() }

func metaWireSize(meta *types.ObjectMeta) int {
	n := 75 + len(meta.ID.Var) + boxWireSize(meta.ID.Box) + 8*len(meta.Replicas)
	if meta.Layout != nil {
		n += stripeWireSize(meta.Layout)
	}
	return n
}

func stripeWireSize(s *types.StripeInfo) int {
	return 36 + 12*len(s.Members)
}

// Handler processes one request and returns the response. Handlers must be
// safe for concurrent use.
type Handler func(ctx context.Context, req *Message) *Message

// Typed transport errors. The retry layer (see IsRetryable) distinguishes
// these transient fabric failures from terminal application errors.
var (
	// ErrUnreachable is returned by Send when the destination has no
	// registered handler (the server failed or never existed).
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrDropped is returned when the fabric lost the request or response
	// (injected by FaultyNetwork; a real fabric surfaces a timeout instead).
	ErrDropped = errors.New("transport: message dropped")
	// ErrPartitioned is returned when a network partition blocks the link
	// between sender and destination.
	ErrPartitioned = errors.New("transport: link partitioned")
	// ErrCorruptFrame is returned when a wire frame fails one of its
	// CRC-32C checks. Damage to the meta or payload segment leaves the frame
	// boundary intact, so only that request fails and is simply resent;
	// damage to the fixed header costs the connection (see tcp.go).
	ErrCorruptFrame = errors.New("transport: corrupt frame (CRC-32C mismatch)")
	// ErrRemoteRetryable wraps MsgErr responses the peer flagged as
	// transient (e.g. it received a corrupt request frame).
	ErrRemoteRetryable = errors.New("transport: retryable remote error")
	// ErrConnBroken is returned for requests in flight on a multiplexed
	// connection that died (EOF, reset, write failure). The request may or
	// may not have reached the server, but every protocol request is
	// idempotent, so resending — which the mux path does once itself, and
	// the retry layer does beyond that — is always safe.
	ErrConnBroken = errors.New("transport: mux connection broken")
)

// Network is the fabric abstraction: register a server's handler, send
// request/response pairs.
type Network interface {
	// Register installs the handler for a server. Re-registering replaces
	// the handler (used when a replacement server takes over an ID).
	Register(id types.ServerID, h Handler)
	// Unregister removes a server from the fabric; subsequent Sends fail
	// with ErrUnreachable. Used by the failure injector.
	Unregister(id types.ServerID)
	// Send delivers req to the destination server and returns its response.
	Send(ctx context.Context, from, to types.ServerID, req *Message) (*Message, error)
}
