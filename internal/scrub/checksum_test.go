package scrub

import (
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"math"
	"math/rand"
	"testing"
	"time"
)

// oneShot is the digest's definition with no blocking: the two standard
// CRCs over the whole payload, packed high/low.
func oneShot(data []byte) uint64 {
	s := uint64(crc32.Checksum(data, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(data))
	if s == 0 {
		s = 1
	}
	return s
}

// checksumSink keeps timed digest calls from being optimized away.
var checksumSink uint64

func patterned(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestChecksumFixedVectors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		// Empty: both CRCs are 0, which is the reserved "not recorded" value.
		{"", 1},
		{"a", 0xC1D04330_E8B7BE43},
		// The published check values: CRC-32C 0xE3069283, CRC-32 0xCBF43926.
		{"123456789", 0xE3069283_CBF43926},
	} {
		if got := Checksum([]byte(tc.in)); got != tc.want {
			t.Errorf("Checksum(%q) = %#016x, want %#016x", tc.in, got, tc.want)
		}
	}
}

// TestChecksumBlockBoundaries pins the blocked two-polynomial walk to the
// one-shot definition at every size where the block loop changes shape.
func TestChecksumBlockBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, checksumBlock - 1, checksumBlock, checksumBlock + 1, 2<<20 + 3} {
		data := patterned(n, int64(n))
		if got, want := Checksum(data), oneShot(data); got != want {
			t.Errorf("size %d: blocked %#016x, one-shot %#016x", n, got, want)
		}
	}
}

// TestChecksumZeroFold covers the reserved value: the one payload known to
// have both CRCs zero, the empty one, reports 1, and the fold leaves every
// other digest alone.
func TestChecksumZeroFold(t *testing.T) {
	if got := Checksum(nil); got != 1 {
		t.Fatalf("Checksum(nil) = %d, want the folded 1", got)
	}
	for n := 1; n < 64; n++ {
		data := patterned(n, int64(n))
		if got := Checksum(data); got == 0 || got != oneShot(data) {
			t.Fatalf("size %d: digest %#x (zero or folded when it should not be)", n, got)
		}
	}
}

// TestDigestInPiecesIsChecksum feeds payloads to Digest in pieces of random
// sizes, as a frame reader's reads cut them, and requires the same digest as
// one Checksum call, with the wire check as its high word.
func TestDigestInPiecesIsChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, checksumBlock + 1, 3*checksumBlock - 5, 2<<20 + 3} {
		data := patterned(n, int64(n))
		for trial := 0; trial < 4; trial++ {
			var d Digest
			for rest := data; len(rest) > 0; {
				piece := 1 + rng.Intn(min(len(rest), 3*checksumBlock))
				d.Write(rest[:piece])
				rest = rest[piece:]
			}
			if got, want := d.Sum(), Checksum(data); got != want {
				t.Fatalf("size %d: digest in pieces %#016x, Checksum %#016x", n, got, want)
			}
			if got, _ := WireCheck(d.Sum()); got != d.CRC32C() {
				t.Fatalf("size %d: CRC32C %08x is not the digest's wire check %08x", n, d.CRC32C(), got)
			}
		}
	}
}

func TestChecksumDetectsEverySingleBitFlip(t *testing.T) {
	data := patterned(4096, 7)
	want := Checksum(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			if Checksum(data) == want {
				t.Fatalf("flip of byte %d bit %d undetected", i, bit)
			}
			data[i] ^= 1 << bit
		}
	}
	if Checksum(data) != want {
		t.Fatal("restored payload changed checksum")
	}
}

// FuzzChecksumDetectsDamage overwrites a random run of bytes and requires
// the digest to move whenever the content did.
func FuzzChecksumDetectsDamage(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte{0xff})
	f.Add(int64(2), uint16(4000), []byte("multi-byte damage"))
	f.Add(int64(3), uint16(65535), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, off uint16, damage []byte) {
		data := patterned(checksumBlock+4096, seed)
		want := Checksum(data)
		at := int(off) % len(data)
		changed := false
		for i, d := range damage {
			if at+i >= len(data) {
				break
			}
			changed = changed || data[at+i] != d
			data[at+i] = d
		}
		if got := Checksum(data); changed && got == want {
			t.Fatalf("damage of %d bytes at %d undetected", len(damage), at)
		} else if !changed && got != want {
			t.Fatal("identical content, different digest")
		}
	})
}

// TestChecksumOutrunsTableDrivenCRC64 is the guard against sliding back to
// a table-driven kernel: on any machine the digest must be at least 3x
// hash/crc64 (ECMA, the kernel it replaced) over the same 2 MiB buffer. The
// measured ratio is ~6x on amd64 with CLMUL/SSE4.2; a slicing-by-8 table
// kernel lands at ~1x.
func TestChecksumOutrunsTableDrivenCRC64(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("throughput ratio is meaningless under -short/-race")
	}
	data := patterned(2<<20, 11)
	ecma := crc64.MakeTable(crc64.ECMA)
	best := func(f func()) time.Duration {
		fastest := time.Duration(math.MaxInt64)
		for i := 0; i < 9; i++ {
			start := time.Now()
			f()
			fastest = min(fastest, time.Since(start))
		}
		return fastest
	}
	ours := best(func() { checksumSink += Checksum(data) })
	theirs := best(func() { checksumSink += crc64.Checksum(data, ecma) })
	if ratio := float64(theirs) / float64(ours); ratio < 3 {
		t.Fatalf("Checksum %v vs crc64-ECMA %v over 2 MiB: %.1fx, want >= 3x", ours, theirs, ratio)
	}
}

func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{1 << 10, 256 << 10, 2 << 20} {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			data := patterned(n, 5)
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checksumSink += Checksum(data)
			}
		})
	}
}
