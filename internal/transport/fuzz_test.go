package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
)

// TestDecodeNeverPanicsOnRandomBytes feeds the wire decoder random garbage
// and bit-flipped valid frames: it must return errors, never panic — the
// property that makes the TCP fabric safe against corrupt or hostile
// peers.
func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("decoder panicked: %v", r)
		}
	}()
	// Pure random buffers.
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(512))
		rng.Read(buf)
		Decode(buf) //nolint:errcheck // only absence of panics matters
	}
	// Single-byte corruptions of a real frame: much deeper decoder
	// penetration than random noise.
	valid := Encode(sampleMessage(), nil)
	for i := 0; i < len(valid); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			buf := append([]byte(nil), valid...)
			buf[i] ^= flip
			Decode(buf) //nolint:errcheck
		}
	}
	// Truncations at every length.
	for i := 0; i <= len(valid); i++ {
		Decode(valid[:i]) //nolint:errcheck
	}
}

// TestFrameCorruptionAlwaysDetected flips every single bit of a framed
// message with a 4 KiB payload — both lengths, the request ID, all three
// checks, the meta segment, the payload — and demands each flip be caught,
// by the reference decoder and by the stream reader alike: segment damage
// surfaces as the typed, retryable ErrCorruptFrame with the request ID
// intact; header damage fails the header's own check before anything else
// is believed. This is the property the fault injector and the TCP fabric
// both lean on.
func TestFrameCorruptionAlwaysDetected(t *testing.T) {
	m := sampleMessage()
	m.Data = make([]byte, 4<<10)
	rand.New(rand.NewSource(3)).Read(m.Data)
	frame := encodeFrameID(m, 9)
	for i := range frame {
		for bit := 0; bit < 8; bit++ {
			buf := append([]byte(nil), frame...)
			buf[i] ^= 1 << bit
			_, err := DecodeFrame(buf)
			reqID, got, rerr := newFrameReader(bytes.NewReader(buf)).next(nil)
			if got != nil {
				t.Fatalf("flip of bit %d at byte %d: stream reader delivered a message", bit, i)
			}
			if i < frameHeaderSize {
				if !errors.Is(err, errCorruptHeader) || !errors.Is(rerr, errCorruptHeader) {
					t.Fatalf("header flip of bit %d at byte %d: DecodeFrame %v, reader %v, want errCorruptHeader", bit, i, err, rerr)
				}
				continue
			}
			if !errors.Is(err, ErrCorruptFrame) || !segmentCorrupt(rerr) {
				t.Fatalf("segment flip of bit %d at byte %d: DecodeFrame %v, reader %v, want ErrCorruptFrame", bit, i, err, rerr)
			}
			if reqID != 9 {
				t.Fatalf("segment flip of bit %d at byte %d: request ID %d, want 9", bit, i, reqID)
			}
		}
	}
	// The pristine frame still decodes (the loop above didn't test a
	// broken encoder against a broken checker).
	if _, err := DecodeFrame(frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	if !errors.Is(errCorruptHeader, ErrCorruptFrame) {
		t.Fatal("a damaged header must read as ErrCorruptFrame")
	}
}

// TestCorruptHeaderNeverSizesAnAllocation feeds every single-bit corruption
// of a valid header to the stream reader. A flipped high bit of either
// length used to size an allocation (up to 1 GiB, zeroed) and a read that
// never completes; with the header's self-check verified first, every one
// is ErrCorruptFrame and the reader allocates nothing beyond its own fixed
// buffer. TotalAlloc is the whole process's, and a goroutine another test
// left winding down can allocate inside one measurement; what the reader
// allocates for a flip it allocates every time, so each flip is charged the
// least of three readings.
func TestCorruptHeaderNeverSizesAnAllocation(t *testing.T) {
	m := sampleMessage()
	m.Data = make([]byte, 4<<10)
	frame := encodeFrameID(m, 9)
	var before, after runtime.MemStats
	buf := make([]byte, len(frame))
	for i := 0; i < frameHeaderSize; i++ {
		for bit := 0; bit < 8; bit++ {
			copy(buf, frame)
			buf[i] ^= 1 << bit
			least := ^uint64(0)
			for trial := 0; trial < 3 && least > uint64(len(frame)); trial++ {
				fr := newFrameReader(bytes.NewReader(buf))
				runtime.ReadMemStats(&before)
				_, _, err := fr.next(nil)
				runtime.ReadMemStats(&after)
				if !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("flip of bit %d at header byte %d: err = %v, want ErrCorruptFrame", bit, i, err)
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least > uint64(len(frame)) {
				t.Fatalf("flip of bit %d at header byte %d: reader allocated %d bytes for a %d-byte frame", bit, i, least, len(frame))
			}
		}
	}
}

// TestOldFrameLayoutFailsHeaderCheck writes a frame in the layout this one
// replaced (length, CRC-32/IEEE of ID and body, ID, body) and checks a
// reader takes it for what it is, damage, instead of mis-parsing it.
func TestOldFrameLayoutFailsHeaderCheck(t *testing.T) {
	body := Encode(sampleMessage(), nil)
	old := make([]byte, 16, 16+len(body))
	binary.LittleEndian.PutUint32(old[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint64(old[8:16], 5)
	old = append(old, body...)
	binary.LittleEndian.PutUint32(old[4:8], crc32.ChecksumIEEE(old[8:]))
	if _, _, err := newFrameReader(bytes.NewReader(old)).next(nil); !errors.Is(err, errCorruptHeader) {
		t.Fatalf("old-layout frame: err = %v, want errCorruptHeader", err)
	}
}

// TestFrameStreamStaysAligned corrupts the payload of the first frame in a
// two-frame stream and checks the connection read loops' reader reports the
// corruption under the frame's own request ID but recovers the next frame,
// written by the scatter-gather writer: the authenticated lengths bound the
// damage, which is why a TCP connection survives a corrupt segment instead
// of being torn down.
func TestFrameStreamStaysAligned(t *testing.T) {
	first := encodeFrameID(sampleMessage(), 4)
	first[len(first)-1] ^= 0xFF // corrupt the last payload byte
	var stream bytes.Buffer
	stream.Write(first)
	if err := writeFrameID(&stream, sampleMessage(), 5); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(&stream)
	if reqID, _, err := fr.next(nil); !segmentCorrupt(err) || reqID != 4 {
		t.Fatalf("corrupt frame read: reqID %d err = %v, want 4 and ErrCorruptFrame", reqID, err)
	}
	reqID, m, err := fr.next(nil)
	if err != nil {
		t.Fatalf("stream lost alignment after corrupt frame: %v", err)
	}
	if reqID != 5 || m.Kind != sampleMessage().Kind || m.Var != sampleMessage().Var || !bytes.Equal(m.Data, sampleMessage().Data) {
		t.Fatal("frame after corruption decoded wrong")
	}
}

// TestDecodeCorruptionDetectedOrHarmless checks that every single-byte
// corruption of a frame either fails to decode or yields a message whose
// re-encoding is internally consistent (no aliasing surprises).
func TestDecodeCorruptionRoundTripConsistent(t *testing.T) {
	valid := Encode(sampleMessage(), nil)
	for i := 0; i < len(valid); i++ {
		buf := append([]byte(nil), valid...)
		buf[i] ^= 0x40
		m, err := Decode(buf)
		if err != nil {
			continue // detected: good
		}
		// Accepted: the decoded message must survive its own round trip.
		again, err := Decode(Encode(m, nil))
		if err != nil {
			t.Fatalf("corruption at %d: re-decode failed: %v", i, err)
		}
		if again.Kind != m.Kind || again.Var != m.Var || len(again.Data) != len(m.Data) {
			t.Fatalf("corruption at %d: round trip not stable", i)
		}
	}
}
