package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// The correctness oracle: an object's bytes are a pure function of
// (var, box, version), so every byte a get returns can be checked without
// keeping a copy of what was put. A payload is one of a few fixed
// pseudo-random base blocks with a 64-bit stamp of (key, version, offset)
// every stampStride bytes: the base catches a flipped or shifted byte
// anywhere, the stamps catch another key's or another version's object.
const (
	stampStride = 1024
	baseBlocks  = 4
)

type oracle struct {
	size  int
	bases [baseBlocks][]byte
}

func newOracle(size int) *oracle {
	o := &oracle{size: size}
	for i := range o.bases {
		o.bases[i] = make([]byte, size)
		rand.New(rand.NewSource(int64(0x5eed0000 + i))).Read(o.bases[i])
	}
	return o
}

func keyHash(name string, boxKey string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{'@'})
	h.Write([]byte(boxKey))
	return h.Sum64()
}

// stamp mixes key, version and offset (splitmix64 finalizer).
func stamp(key uint64, version, off int) uint64 {
	x := key ^ uint64(version)*0x9e3779b97f4a7c15 ^ uint64(off)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fill writes the payload of (key, version) into dst, which has o.size bytes.
func (o *oracle) fill(dst []byte, key uint64, version int) {
	copy(dst, o.bases[key%baseBlocks])
	for off := 0; off+8 <= len(dst); off += stampStride {
		binary.LittleEndian.PutUint64(dst[off:], stamp(key, version, off))
	}
}

// check reports whether got is exactly the payload of (key, version).
func (o *oracle) check(got []byte, key uint64, version int) bool {
	if len(got) != o.size {
		return false
	}
	base := o.bases[key%baseBlocks]
	for off := 0; off < len(got); off += stampStride {
		end := off + stampStride
		if end > len(got) {
			end = len(got)
		}
		body := off
		if off+8 <= len(got) {
			if binary.LittleEndian.Uint64(got[off:]) != stamp(key, version, off) {
				return false
			}
			body = off + 8
		}
		if !bytes.Equal(got[body:end], base[body:end]) {
			return false
		}
	}
	return true
}

// describe says what a wrong read-back holds instead of the expected
// version: an older version of the same key, or bytes of no version at all.
func (o *oracle) describe(got []byte, key uint64, expected int) string {
	for v := expected - 1; v >= 1; v-- {
		if o.check(got, key, v) {
			return fmt.Sprintf("holds version %d", v)
		}
	}
	return "holds no version of this key"
}
