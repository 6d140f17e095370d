package transport

import (
	"bytes"
	"errors"
	"math/rand"
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

// TestFrameCorruptionAlwaysDetected flips every bit position of a framed
// message and demands the CRC32 layer catch it: payload corruption must
// surface as the typed, retryable ErrCorruptFrame; header corruption must
// fail too (length mismatch or checksum error), and nothing may panic.
// This is the property the fault injector and the TCP fabric both lean on.
func TestFrameCorruptionAlwaysDetected(t *testing.T) {
	frame := EncodeFrame(sampleMessage())
	for i := frameHeaderSize; i < len(frame); i++ {
		for _, flip := range []byte{0x01, 0x10, 0x80} {
			buf := append([]byte(nil), frame...)
			buf[i] ^= flip
			_, err := DecodeFrame(buf)
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("payload flip 0x%02x at byte %d: err = %v, want ErrCorruptFrame", flip, i, err)
			}
		}
	}
	for i := 0; i < frameHeaderSize; i++ {
		for _, flip := range []byte{0x01, 0x10, 0x80} {
			buf := append([]byte(nil), frame...)
			buf[i] ^= flip
			if _, err := DecodeFrame(buf); err == nil {
				t.Fatalf("header flip 0x%02x at byte %d accepted", flip, i)
			}
		}
	}
	// The pristine frame still decodes (the loop above didn't test a
	// broken encoder against a broken checker).
	if _, err := DecodeFrame(frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

// TestFrameStreamStaysAligned corrupts one frame in a two-frame stream and
// checks the connection read loops' reader reports the corruption but
// recovers the next frame, written by the scatter-gather writer: the length
// prefix bounds the damage, which is why a TCP connection survives a
// corrupt frame instead of being torn down.
func TestFrameStreamStaysAligned(t *testing.T) {
	first := EncodeFrame(sampleMessage())
	first[frameHeaderSize] ^= 0xFF // corrupt the first payload byte
	var stream bytes.Buffer
	stream.Write(first)
	if err := writeFrameID(&stream, sampleMessage(), 5); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, frameHeaderSize)
	if _, _, err := readFramePooled(&stream, hdr); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupt frame read: err = %v, want ErrCorruptFrame", err)
	}
	reqID, m, err := readFramePooled(&stream, hdr)
	if err != nil {
		t.Fatalf("stream lost alignment after corrupt frame: %v", err)
	}
	if reqID != 5 || m.Kind != sampleMessage().Kind || m.Var != sampleMessage().Var {
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
