package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"corec/internal/gf256"
)

// makeStripe returns a stripe of seeded random data shards of the given size
// with its parity from refEncode: the reference every codec is held to.
func makeStripe(t testing.TB, c *Codec, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, c.TotalShards())
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < c.DataShards() {
			rng.Read(shards[i])
		}
	}
	refEncode(c, shards)
	return shards
}

// refEncode computes the parity shards the plain way — row by row over the
// generator with gf256's scalar reference kernels — so the engine's chunked,
// fused and pooled arithmetic is compared against a loop anyone can audit.
func refEncode(c *Codec, shards [][]byte) {
	for p := c.k; p < c.k+c.m; p++ {
		row := c.gen.Row(p)
		gf256.MulSliceRef(row[0], shards[0], shards[p])
		for d := 1; d < c.k; d++ {
			gf256.MulAddSliceRef(row[d], shards[d], shards[p])
		}
	}
}

func cloneStripe(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		if s != nil {
			out[i] = append([]byte(nil), s...)
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(3, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := New(250, 10); err == nil {
		t.Error("k+m>256 accepted")
	}
	c, err := New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.DataShards() != 3 || c.ParityShards() != 1 || c.TotalShards() != 4 {
		t.Error("shard counts wrong")
	}
}

func TestEncodeVerify(t *testing.T) {
	c, _ := New(4, 2)
	shards := makeStripe(t, c, 1024, 1)
	if err := c.Verify(shards); err != nil {
		t.Fatalf("fresh stripe failed verification: %v", err)
	}
	shards[2][10] ^= 1
	if err := c.Verify(shards); !errors.Is(err, ErrVerify) {
		t.Fatalf("corrupted stripe verified: %v", err)
	}
}

func TestReconstructAllLossPatterns(t *testing.T) {
	// RS(3+2): every subset of <=2 lost shards must reconstruct exactly.
	c, _ := New(3, 2)
	orig := makeStripe(t, c, 511, 2)
	n := c.TotalShards()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			shards := cloneStripe(orig)
			shards[i] = nil
			shards[j] = nil
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("lose (%d,%d): %v", i, j, err)
			}
			for s := range shards {
				if !bytes.Equal(shards[s], orig[s]) {
					t.Fatalf("lose (%d,%d): shard %d mismatch", i, j, s)
				}
			}
		}
	}
}

func TestReconstructTooManyLosses(t *testing.T) {
	c, _ := New(3, 2)
	shards := makeStripe(t, c, 64, 3)
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := c.Reconstruct(shards); !errors.Is(err, ErrTooFewGood) {
		t.Fatalf("got %v, want ErrTooFewGood", err)
	}
}

func TestReconstructNoLoss(t *testing.T) {
	c, _ := New(3, 2)
	orig := makeStripe(t, c, 64, 4)
	shards := cloneStripe(orig)
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatal("no-loss reconstruct modified shards")
		}
	}
}

func TestReconstructDataOnly(t *testing.T) {
	c, _ := New(4, 2)
	orig := makeStripe(t, c, 256, 5)
	shards := cloneStripe(orig)
	shards[1] = nil // data
	shards[5] = nil // parity
	if err := c.ReconstructData(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[1], orig[1]) {
		t.Fatal("data shard not recovered")
	}
	if shards[5] != nil {
		t.Fatal("ReconstructData repaired parity; it must not")
	}
}

func TestReconstructSurvivorsUntouched(t *testing.T) {
	c, _ := New(4, 2)
	orig := makeStripe(t, c, 128, 6)
	shards := cloneStripe(orig)
	shards[0] = nil
	survivor := shards[3]
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if &survivor[0] != &shards[3][0] {
		t.Fatal("survivor shard was reallocated")
	}
}

func TestReconstructPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func() bool {
		k := 1 + rng.Intn(8)
		m := 1 + rng.Intn(4)
		c, err := New(k, m)
		if err != nil {
			return false
		}
		size := 1 + rng.Intn(300)
		orig := makeStripe(t, c, size, rng.Int63())
		shards := cloneStripe(orig)
		// Lose up to m random shards.
		losses := rng.Intn(m + 1)
		for _, idx := range rng.Perm(k + m)[:losses] {
			shards[idx] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUpdateParityMatchesReencode(t *testing.T) {
	c, _ := New(3, 2)
	shards := makeStripe(t, c, 200, 8)
	oldData := append([]byte(nil), shards[1]...)
	newData := make([]byte, len(oldData))
	rand.New(rand.NewSource(9)).Read(newData)

	// Path 1: delta update.
	parity := [][]byte{
		append([]byte(nil), shards[3]...),
		append([]byte(nil), shards[4]...),
	}
	if err := c.UpdateParity(1, oldData, newData, parity); err != nil {
		t.Fatal(err)
	}

	// Path 2: full re-encode.
	shards[1] = newData
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parity[0], shards[3]) || !bytes.Equal(parity[1], shards[4]) {
		t.Fatal("delta parity update disagrees with full re-encode")
	}
}

func TestUpdateParityValidation(t *testing.T) {
	c, _ := New(3, 2)
	good := make([][]byte, 2)
	good[0] = make([]byte, 4)
	good[1] = make([]byte, 4)
	if err := c.UpdateParity(-1, make([]byte, 4), make([]byte, 4), good); err == nil {
		t.Error("negative index accepted")
	}
	if err := c.UpdateParity(3, make([]byte, 4), make([]byte, 4), good); err == nil {
		t.Error("index >= k accepted")
	}
	if err := c.UpdateParity(0, make([]byte, 4), make([]byte, 5), good); err == nil {
		t.Error("size mismatch accepted")
	}
	if err := c.UpdateParity(0, make([]byte, 4), make([]byte, 4), good[:1]); err == nil {
		t.Error("short parity slice accepted")
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	c, _ := New(3, 1)
	for _, size := range []int{1, 2, 3, 100, 301, 4096} {
		data := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(data)
		shards, shardSize := c.Split(data)
		if len(shards) != 4 {
			t.Fatalf("size %d: got %d shards", size, len(shards))
		}
		for _, s := range shards {
			if len(s) != shardSize {
				t.Fatalf("size %d: unequal shard sizes", size)
			}
		}
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		// The data shards, end to end, are the object and then zero padding:
		// what lets a reader receive shard i straight into its window of the
		// object's buffer.
		got := bytes.Join(shards[:3], nil)
		if !bytes.Equal(got[:size], data) || !bytes.Equal(got[size:], make([]byte, 3*shardSize-size)) {
			t.Fatalf("size %d: round trip failed", size)
		}
	}
}

// TestSplitSharesWholeShards pins Split's contract: a data shard wholly
// inside the input is a window of it whose capacity ends with the shard, a
// padded tail shard is a zero-padded copy, the parity is fresh memory, and
// Encode leaves the input byte-identical.
func TestSplitSharesWholeShards(t *testing.T) {
	c, _ := New(3, 1)
	for _, size := range []int{1, 2, 3, 1023, 3 << 10, 256 << 10, 2 << 20} {
		data := make([]byte, size, size+64) // room an uncapped window would reach
		rand.New(rand.NewSource(int64(size))).Read(data)
		orig := bytes.Clone(data)
		shards, ss := c.Split(data)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		for i, s := range shards {
			whole := i < 3 && (i+1)*ss <= size
			if shared := overlaps(s, data[:cap(data)]); shared != whole {
				t.Fatalf("size %d shard %d: shares the input's memory = %v, want %v", size, i, shared, whole)
			}
			if whole && cap(s) != ss {
				t.Fatalf("size %d shard %d: capacity %d, want %d", size, i, cap(s), ss)
			}
			if i < 3 && !whole {
				lo := min(i*ss, size)
				want := append(bytes.Clone(data[lo:]), make([]byte, ss-(size-lo))...)
				if !bytes.Equal(s, want) {
					t.Fatalf("size %d shard %d: not the zero-padded tail", size, i)
				}
			}
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("size %d: Split+Encode changed the input", size)
		}
	}
}

// overlaps reports whether the memory behind a and b (to their capacities)
// overlaps.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b)) && b0 < a0+uintptr(cap(a))
}

func TestSplitEmptyData(t *testing.T) {
	c, _ := New(3, 1)
	shards, shardSize := c.Split(nil)
	if shardSize != 1 {
		t.Fatalf("empty split shard size = %d, want 1", shardSize)
	}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
}

// TestRS31ParityIsXORAndEveryLossReconstructs pins the deployed geometry:
// RS(3+1)'s parity row is all ones, so parity is the XOR of the data shards,
// and every single-shard loss decodes through an all-ones row. Sizes are
// none of them a multiple of k, so the tail shard is always padded; the
// engine runs with one worker and with four.
func TestRS31ParityIsXORAndEveryLossReconstructs(t *testing.T) {
	serial, err := New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Codec{serial, serial.WithWorkers(4)} {
		for _, size := range []int{1, 2, 1023, 256 << 10, 2 << 20} {
			data := make([]byte, size)
			rand.New(rand.NewSource(int64(size))).Read(data)
			orig, _ := c.Split(data)
			if err := c.Encode(orig); err != nil {
				t.Fatal(err)
			}
			xor := make([]byte, len(orig[0]))
			for _, s := range orig[:3] {
				for i, b := range s {
					xor[i] ^= b
				}
			}
			if !bytes.Equal(orig[3], xor) {
				t.Fatalf("workers=%d size %d: parity is not the XOR of the data shards", c.Workers(), size)
			}
			for lost := range orig {
				shards := cloneStripe(orig)
				shards[lost] = nil
				if err := c.Reconstruct(shards); err != nil {
					t.Fatal(err)
				}
				for i := range shards {
					if !bytes.Equal(shards[i], orig[i]) {
						t.Fatalf("workers=%d size %d lost %d: shard %d mismatch", c.Workers(), size, lost, i)
					}
				}
			}
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	c, _ := New(3, 2)
	if err := c.Encode(make([][]byte, 3)); !errors.Is(err, ErrShardCount) {
		t.Errorf("short stripe: %v", err)
	}
	bad := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 5), make([]byte, 4), make([]byte, 4)}
	if err := c.Encode(bad); !errors.Is(err, ErrShardSize) {
		t.Errorf("ragged stripe: %v", err)
	}
	nilShard := [][]byte{make([]byte, 4), nil, make([]byte, 4), make([]byte, 4), make([]byte, 4)}
	if err := c.Encode(nilShard); !errors.Is(err, ErrShardSize) {
		t.Errorf("nil shard: %v", err)
	}
}

func TestDegradedReadThenRepairParity(t *testing.T) {
	// Lose a data and a parity shard; degraded-read recovers the data,
	// then a later full Reconstruct repairs the parity too.
	c, _ := New(4, 2)
	orig := makeStripe(t, c, 333, 11)
	shards := cloneStripe(orig)
	shards[2], shards[4] = nil, nil
	if err := c.ReconstructData(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[2], orig[2]) {
		t.Fatal("degraded read returned wrong data")
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[4], orig[4]) {
		t.Fatal("parity repair failed after degraded read")
	}
}

func BenchmarkEncodeRS_3_1_1MiB(b *testing.B)  { benchEncode(b, 3, 1, 1<<20) }
func BenchmarkEncodeRS_6_2_1MiB(b *testing.B)  { benchEncode(b, 6, 2, 1<<20) }
func BenchmarkEncodeRS_10_4_1MiB(b *testing.B) { benchEncode(b, 10, 4, 1<<20) }

func benchEncode(b *testing.B, k, m, total int) {
	c, err := New(k, m)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, total)
	rand.New(rand.NewSource(1)).Read(data)
	shards, _ := c.Split(data)
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitEncode_3_1 is the encode a demotion runs, Split included, at
// the deployed geometry with one worker, so the allocations it reports
// are Split's own: the stripe's slice array, the padded tail shard and the
// parity shard.
func BenchmarkSplitEncode_3_1(b *testing.B) {
	c, err := New(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		size int
	}{{"256KiB", 256 << 10}, {"2MiB", 2 << 20}} {
		data := make([]byte, bc.size)
		rand.New(rand.NewSource(1)).Read(data)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(bc.size))
			for i := 0; i < b.N; i++ {
				shards, _ := c.Split(data)
				if err := c.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReconstructOneLoss(b *testing.B) {
	c, _ := New(3, 1)
	orig := makeStripe(b, c, 1<<18, 3)
	b.SetBytes(int64(3 * (1 << 18)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := cloneStripe(orig)
		shards[1] = nil
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateParityDelta(b *testing.B) {
	c, _ := New(3, 1)
	shards := makeStripe(b, c, 1<<18, 4)
	oldData := shards[0]
	newData := make([]byte, len(oldData))
	rand.New(rand.NewSource(5)).Read(newData)
	parity := [][]byte{shards[3]}
	b.SetBytes(int64(len(oldData)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.UpdateParity(0, oldData, newData, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func TestVerifyDetectsEverySingleByteCorruption(t *testing.T) {
	// Property: flipping any single byte anywhere in the stripe makes
	// Verify fail — RS parity is sensitive to every position.
	c, _ := New(3, 2)
	shards := makeStripe(t, c, 64, 77)
	for s := range shards {
		for _, off := range []int{0, 13, 63} {
			shards[s][off] ^= 0x5A
			if err := c.Verify(shards); err == nil {
				t.Fatalf("corruption at shard %d offset %d undetected", s, off)
			}
			shards[s][off] ^= 0x5A
		}
	}
	if err := c.Verify(shards); err != nil {
		t.Fatalf("stripe damaged by the probe: %v", err)
	}
}

func TestReconstructThenVerifyProperty(t *testing.T) {
	// Reconstruction must always produce a stripe that verifies.
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(6)
		m := 1 + rng.Intn(3)
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		shards := makeStripe(t, c, 1+rng.Intn(200), rng.Int63())
		for _, idx := range rng.Perm(k + m)[:rng.Intn(m+1)] {
			shards[idx] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		if err := c.Verify(shards); err != nil {
			t.Fatalf("reconstructed stripe does not verify: %v", err)
		}
	}
}
