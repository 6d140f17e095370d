// Package erasure implements a systematic Reed-Solomon erasure code
// RS(n = k+m, k) over GF(2^8), replacing the Jerasure library the paper
// uses. A stripe holds k equally sized data shards and m parity shards; any
// m shard losses are recoverable from the surviving k.
//
// Beyond the standard Encode/Reconstruct pair the codec supports
// UpdateParity, the delta-encoding path CoREC needs when a single encoded
// object is overwritten: parity is patched from the XOR-difference of the
// old and new data shard without touching the other k-1 data shards. This
// is exactly the "read old data, recompute parity" cost the paper charges
// to erasure-coded writes.
package erasure

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"

	"corec/internal/gf256"
	"corec/internal/matrix"
)

// Common codec errors.
var (
	ErrShardCount = errors.New("erasure: wrong number of shards")
	ErrShardSize  = errors.New("erasure: shards have unequal or zero size")
	ErrTooFewGood = errors.New("erasure: too few surviving shards to reconstruct")
	ErrVerify     = errors.New("erasure: parity verification failed")
)

// Codec is a reusable Reed-Solomon encoder/decoder for fixed (k, m). It is
// safe for concurrent use: coding state is immutable after construction and
// the optional decode-matrix cache is internally synchronized.
type Codec struct {
	k, m int
	gen  *matrix.Matrix // (k+m) x k systematic generator
	// workers bounds the range parallelism of the chunked fused engine in
	// parallel.go, which every Encode, Verify and Reconstruct runs: with 1
	// the caller runs the whole stripe as one range.
	workers int
	// dec, when non-nil, caches inverted decode matrices keyed by
	// (k, m, survivor rows) so repeated degraded reads of the same loss
	// pattern skip Gaussian elimination.
	dec *matrix.InverseCache
}

// DefaultDecodeCacheEntries is the decode-matrix cache capacity WithDecodeCache
// uses when given a non-positive size. Loss patterns come from server
// failures, so live distinct patterns are few; 64 entries cover many
// simultaneous patterns at ~k*k bytes each.
const DefaultDecodeCacheEntries = 64

// New constructs a codec with k data shards and m parity shards using the
// Vandermonde-derived generator (see matrix.RSGenerator).
func New(k, m int) (*Codec, error) {
	if k <= 0 {
		return nil, fmt.Errorf("erasure: data shard count %d must be positive", k)
	}
	if m <= 0 {
		return nil, fmt.Errorf("erasure: parity shard count %d must be positive", m)
	}
	gen, err := matrix.RSGenerator(k, m)
	if err != nil {
		return nil, err
	}
	return &Codec{k: k, m: m, gen: gen, workers: 1}, nil
}

// WithWorkers returns a copy of the codec whose Encode/Reconstruct shard the
// stripe across up to n pool workers. n <= 0 selects DefaultWorkers();
// n == 1 runs the stripe as one range on the caller. The copy shares the
// generator and any decode-matrix cache with the receiver.
func (c *Codec) WithWorkers(n int) *Codec {
	if n <= 0 {
		n = DefaultWorkers()
	}
	cp := *c
	cp.workers = n
	return &cp
}

// WithDecodeCache returns a copy of the codec that caches inverted decode
// matrices in a fresh LRU of the given capacity (DefaultDecodeCacheEntries
// when entries <= 0). The cache is shared by all further copies made from
// the returned codec.
func (c *Codec) WithDecodeCache(entries int) *Codec {
	if entries <= 0 {
		entries = DefaultDecodeCacheEntries
	}
	cp := *c
	cp.dec = matrix.NewInverseCache(entries)
	return &cp
}

// Workers reports the codec's range-parallelism bound.
func (c *Codec) Workers() int { return c.workers }

// DecodeCacheStats returns a snapshot of the decode-matrix cache counters.
// ok is false when the codec has no cache.
func (c *Codec) DecodeCacheStats() (stats matrix.CacheStats, ok bool) {
	if c.dec == nil {
		return matrix.CacheStats{}, false
	}
	return c.dec.Stats(), true
}

// DataShards returns k, the number of data shards per stripe.
func (c *Codec) DataShards() int { return c.k }

// ParityShards returns m, the number of parity shards per stripe.
func (c *Codec) ParityShards() int { return c.m }

// TotalShards returns k+m.
func (c *Codec) TotalShards() int { return c.k + c.m }

// checkShards returns the stripe's shard size. With allowMissing, shards of
// length zero are the missing ones (see Reconstruct) and do not count.
func (c *Codec) checkShards(shards [][]byte, allowMissing bool) (size int, err error) {
	if len(shards) != c.k+c.m {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.k+c.m)
	}
	size = -1
	for _, s := range shards {
		if len(s) == 0 {
			if !allowMissing {
				return 0, fmt.Errorf("%w: empty shard", ErrShardSize)
			}
			continue
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("%w: %d vs %d", ErrShardSize, len(s), size)
		}
	}
	if size <= 0 {
		return 0, fmt.Errorf("%w: no shard data", ErrShardSize)
	}
	return size, nil
}

// Encode computes the m parity shards from the first k data shards,
// overwriting shards[k:]. All k+m shards must be allocated with equal size.
// The stripe is sharded across the range engine (see WithWorkers); the
// output is the same whatever the worker count.
func (c *Codec) Encode(shards [][]byte) error {
	size, err := c.checkShards(shards, false)
	if err != nil {
		return err
	}
	run(size, c.workers, func(lo, hi int) { c.encodeRange(shards, lo, hi) })
	return nil
}

// Verify checks that the parity shards are consistent with the data shards.
// It returns nil when the stripe verifies and ErrVerify when it does not.
func (c *Codec) Verify(shards [][]byte) error {
	size, err := c.checkShards(shards, false)
	if err != nil {
		return err
	}
	want := slices.Clone(shards)
	for p := c.k; p < c.k+c.m; p++ {
		want[p] = make([]byte, size)
	}
	run(size, c.workers, func(lo, hi int) { c.encodeRange(want, lo, hi) })
	for p := c.k; p < c.k+c.m; p++ {
		if !bytes.Equal(want[p], shards[p]) {
			return ErrVerify
		}
	}
	return nil
}

// Reconstruct fills in the missing shards in place. Missing shards are the
// entries of length zero; up to m shards may be missing. Surviving shards
// are never modified. A missing shard is rebuilt into a fresh allocation —
// nil always gets one — unless the entry brings its own memory: a
// zero-length slice with capacity for a shard is rebuilt right there
// (shards[i] = dst[lo:lo:hi]), which is how a reader decodes straight into
// the buffer the data is wanted in.
func (c *Codec) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, false)
}

// ReconstructData fills in only the missing data shards, skipping the
// (cheaper) regeneration of lost parity. This is the degraded-read path: a
// client needs the data now; parity can be repaired lazily.
func (c *Codec) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, true)
}

func (c *Codec) reconstruct(shards [][]byte, dataOnly bool) error {
	size, err := c.checkShards(shards, true)
	if err != nil {
		return err
	}
	var missing, present []int
	for i, s := range shards {
		if len(s) == 0 {
			missing = append(missing, i)
		} else {
			present = append(present, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: %d survivors, need %d", ErrTooFewGood, len(present), c.k)
	}
	// Decode matrix: invert k surviving generator rows, mapping survivors
	// back to the original data shards.
	rows := present[:c.k]
	dec, err := c.decodeMatrix(rows)
	if err != nil {
		// Cannot happen for an MDS generator; surface it defensively.
		return fmt.Errorf("erasure: decode matrix singular: %w", err)
	}
	// Every missing shard gets its buffer up front (its own memory or a
	// fresh one, see rebuildTarget), byte-ranges of the stripe are fanned
	// out to the range engine, and the recovered buffers are attached to the
	// stripe only once every range has completed.
	newBufs := make([][]byte, c.k+c.m)
	var needed []int
	for _, idx := range missing {
		if dataOnly && idx >= c.k {
			continue
		}
		newBufs[idx] = rebuildTarget(shards[idx], size)
		needed = append(needed, idx)
	}
	if len(needed) == 0 {
		return nil
	}
	survivors := make([][]byte, len(rows))
	for j, idx := range rows {
		survivors[j] = shards[idx]
	}
	// Parity re-encoding reads the full data view: surviving data shards
	// plus the buffers being recovered (each range fills its own window of
	// those buffers before touching parity, so the view is complete there).
	dataView := make([][]byte, c.k)
	for d := 0; d < c.k; d++ {
		if len(shards[d]) != 0 {
			dataView[d] = shards[d]
		} else {
			dataView[d] = newBufs[d]
		}
	}
	run(size, c.workers, func(lo, hi int) {
		c.reconstructRange(newBufs, survivors, dataView, dec, needed, dataOnly, lo, hi)
	})
	for _, idx := range needed {
		shards[idx] = newBufs[idx]
	}
	return nil
}

// rebuildTarget returns where a missing shard is rebuilt: in the entry's own
// memory when it has room for a shard, else in a fresh allocation. Every
// byte of the result is written by the caller, so used memory needs no
// clearing.
func rebuildTarget(missing []byte, size int) []byte {
	if cap(missing) >= size {
		return missing[:size]
	}
	return make([]byte, size)
}

// decodeMatrix returns the inverse of the generator rows selected by the
// survivor set, consulting the decode-matrix cache when one is attached.
// Cached matrices are shared and read-only.
func (c *Codec) decodeMatrix(rows []int) (*matrix.Matrix, error) {
	var key string
	if c.dec != nil {
		kb := make([]byte, 0, 2+len(rows))
		kb = append(kb, byte(c.k), byte(c.m))
		for _, r := range rows {
			kb = append(kb, byte(r))
		}
		key = string(kb)
		if inv, ok := c.dec.Get(key); ok {
			return inv, nil
		}
	}
	inv, err := c.gen.SelectRows(rows).Invert()
	if err != nil {
		return nil, err
	}
	if c.dec != nil {
		c.dec.Add(key, inv)
	}
	return inv, nil
}

// UpdateParity patches the parity shards after data shard dataIndex changed
// from oldData to newData, without reading the other data shards. Each
// parity p is updated as parity ^= G[k+p][dataIndex] * (old ^ new), which is
// the algebraic identity behind the paper's "update one object => read old
// data, recompute parity" cost accounting (but cheaper: only the old copy of
// the changed shard is needed, which the staging server has locally).
func (c *Codec) UpdateParity(dataIndex int, oldData, newData []byte, parity [][]byte) error {
	if dataIndex < 0 || dataIndex >= c.k {
		return fmt.Errorf("erasure: data index %d out of range [0,%d)", dataIndex, c.k)
	}
	if len(parity) != c.m {
		return fmt.Errorf("%w: got %d parity shards, want %d", ErrShardCount, len(parity), c.m)
	}
	if len(oldData) != len(newData) {
		return fmt.Errorf("%w: old %d vs new %d", ErrShardSize, len(oldData), len(newData))
	}
	delta := make([]byte, len(oldData))
	subtle.XORBytes(delta, oldData, newData)
	for p := 0; p < c.m; p++ {
		if len(parity[p]) != len(delta) {
			return fmt.Errorf("%w: parity %d has size %d, want %d", ErrShardSize, p, len(parity[p]), len(delta))
		}
		coef := c.gen.At(c.k+p, dataIndex)
		gf256.MulAddSlice(coef, delta, parity[p])
	}
	return nil
}

// Split cuts data into k equally sized data shards and allocates m parity
// shards, returning a ready-to-Encode stripe and the shard size. It copies
// only what it cannot slice: a data shard that lies wholly inside data is
// that window of it, data[lo:hi:hi], its capacity capped so an append can
// never reach the next shard; a shard that needs zero padding is a padded
// copy, and the parity shards are fresh memory, the only memory Encode
// writes. The stripe therefore shares data's memory: data must not change
// while the stripe is in use, and a caller that keeps a data shard beyond
// that copies it, so that what it keeps never pins all of data behind one
// shard of it.
func (c *Codec) Split(data []byte) ([][]byte, int) {
	shardSize := max((len(data)+c.k-1)/c.k, 1)
	shards := make([][]byte, c.k+c.m)
	for i := range shards {
		lo, hi := i*shardSize, (i+1)*shardSize
		if hi <= len(data) {
			shards[i] = data[lo:hi:hi]
			continue
		}
		shards[i] = make([]byte, shardSize)
		if lo < len(data) {
			copy(shards[i], data[lo:])
		}
	}
	return shards, shardSize
}
