// Package types defines the object model shared by every layer of the
// staging runtime: object identity (variable name + version + bounding box),
// object payloads, resilience state, and the wire-friendly descriptors the
// metadata directory stores.
package types

import (
	"fmt"

	"corec/internal/geometry"
)

// ServerID identifies a staging server. Servers are numbered 0..N-1 in
// *logical ring order* (see internal/topology); placement operates on these
// logical IDs.
type ServerID int

// InvalidServer is the sentinel for "no server".
const InvalidServer ServerID = -1

// Version is a data version, conventionally the simulation time step that
// produced the object.
type Version int64

// ObjectID identifies one staged object: a named variable over a region of
// the domain. Two writes of the same variable and box are updates of the
// same object (possibly bumping the version); writes of different boxes are
// different objects.
type ObjectID struct {
	Var string
	Box geometry.Box
}

// Key returns a canonical map key for the object identity.
func (id ObjectID) Key() string { return id.Var + "@" + id.Box.Key() }

// String implements fmt.Stringer.
func (id ObjectID) String() string { return id.Key() }

// ResilienceState records how an object is currently protected.
type ResilienceState uint8

// Object protection states.
const (
	// StateNone means the object has no redundancy (staging without fault
	// tolerance, or a transient state during transition).
	StateNone ResilienceState = iota
	// StateReplicated means full copies exist on the replication group.
	StateReplicated
	// StateEncoded means the object is part of an erasure-coded stripe.
	StateEncoded
)

// String implements fmt.Stringer.
func (s ResilienceState) String() string {
	switch s {
	case StateNone:
		return "none"
	case StateReplicated:
		return "replicated"
	case StateEncoded:
		return "encoded"
	default:
		return fmt.Sprintf("ResilienceState(%d)", uint8(s))
	}
}

// Object is a staged data object: identity, version and payload bytes. The
// payload layout is opaque to the staging layer (row-major array data in the
// experiments).
type Object struct {
	ID      ObjectID
	Version Version
	Data    []byte
	// Sum is the at-rest digest (scrub.Checksum) of Data, computed by the
	// server holding this copy when it installed it: what its scrubber and
	// verified reads check the bytes against.
	Sum uint64
}

// Size returns the payload size in bytes.
func (o *Object) Size() int { return len(o.Data) }

// Clone deep-copies the object.
func (o *Object) Clone() *Object {
	return &Object{ID: o.ID, Version: o.Version, Data: append([]byte(nil), o.Data...), Sum: o.Sum}
}

// StripeID identifies an erasure-coded stripe. Stripes are minted by the
// encoding workflow; the ID embeds the minting server's id and a sequence
// number from that server's clock so it is unique cluster-wide without
// coordination.
type StripeID struct {
	Group int
	Seq   uint64
}

// String implements fmt.Stringer.
func (s StripeID) String() string { return fmt.Sprintf("stripe(g%d#%d)", s.Group, s.Seq) }

// StripeMember locates one shard of a stripe.
type StripeMember struct {
	Server ServerID
	// Index is the shard index within the stripe: 0..k-1 are data shards,
	// k..k+m-1 are parity shards.
	Index int
}

// StripeInfo is a stripe's layout: its geometry and where each shard lives.
// A stripe encodes exactly one object, so it has no record of its own: it
// rides the encoded object's ObjectMeta, and shard holders keep the copy
// their shard arrived with. Only a membership edit changes it: a slot changes
// hands, and the stripe keeps its ID.
type StripeInfo struct {
	ID        StripeID
	K, M      int
	ShardSize int
	Members   []StripeMember
}

// Clone deep-copies the layout.
func (s *StripeInfo) Clone() *StripeInfo {
	c := *s
	c.Members = append([]StripeMember(nil), s.Members...)
	return &c
}

// MemberFor returns the member holding shard index idx, or false.
func (s *StripeInfo) MemberFor(idx int) (StripeMember, bool) {
	for _, m := range s.Members {
		if m.Index == idx {
			return m, true
		}
	}
	return StripeMember{}, false
}

// ObjectMeta is the metadata directory's record of one object.
type ObjectMeta struct {
	ID      ObjectID
	Version Version
	// Seq orders directory updates that share a Version. The staging model
	// allows rewrites of the same (key, version) — and the CoREC policy
	// itself flips a record's state (replicated <-> encoded, stripe moves)
	// without a version change — so Version alone cannot order the
	// directory's view of a record. Seq is a hybrid logical timestamp
	// minted by the server performing the transition: physical microseconds
	// merged with every Seq the server has observed, so it is strictly
	// increasing across the flips of one record even when ownership moves
	// between servers. Mirrors reject same-version updates with a lower
	// Seq, which keeps the shard group convergent under concurrent flips.
	Seq   uint64
	Size  int
	State ResilienceState
	// Checksum is the content checksum (scrub.Checksum) of the object's
	// payload, the at-rest integrity authority the anti-entropy scrubber
	// verifies copies against. Zero means "not recorded" (a record written
	// before scrubbing existed); the first scrub pass backfills it.
	Checksum uint64
	// Primary is the server that owns the authoritative copy.
	Primary ServerID
	// Replicas lists servers holding full copies (excluding Primary);
	// populated when State == StateReplicated.
	Replicas []ServerID
	// Stripe is the stripe the object belongs to when State == StateEncoded.
	Stripe StripeID
	// ShardIndex is the data-shard index of the object within Stripe.
	ShardIndex int
	// Layout is Stripe's layout, nil unless State == StateEncoded. It is
	// published in the very update that flips the object to encoded, so a
	// reader holding an encoded record holds everything it needs to gather
	// the shards.
	Layout *StripeInfo
}

// Newer reports whether m supersedes o: a higher version, or a later
// same-version transition (Seq orders those). This is the one ordering rule
// for directory records; every mirror, client and migrator applies it.
func (m *ObjectMeta) Newer(o *ObjectMeta) bool {
	if m.Version != o.Version {
		return m.Version > o.Version
	}
	return m.Seq > o.Seq
}

// Locations returns every server holding a full copy of the object
// (primary plus replicas).
func (m *ObjectMeta) Locations() []ServerID {
	out := make([]ServerID, 0, 1+len(m.Replicas))
	out = append(out, m.Primary)
	out = append(out, m.Replicas...)
	return out
}

// Clone deep-copies the metadata record.
func (m *ObjectMeta) Clone() *ObjectMeta {
	c := *m
	c.Replicas = append([]ServerID(nil), m.Replicas...)
	if m.Layout != nil {
		c.Layout = m.Layout.Clone()
	}
	return &c
}
