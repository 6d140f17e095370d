package checkpoint

import (
	"bytes"
	"testing"
	"time"

	"corec/internal/simnet"
)

type fakeSnap struct{ streams [][]byte }

func (f *fakeSnap) ServerBytes() [][]byte { return f.streams }

func fastPFS() simnet.PFSModel {
	return simnet.PFSModel{OpenLatency: time.Millisecond, BytesPerSecond: 1 << 30}
}

func TestCheckpointRestartRoundTrip(t *testing.T) {
	cp := New(fastPFS())
	src := &fakeSnap{streams: [][]byte{[]byte("server0"), []byte("server1-data")}}
	d := cp.Checkpoint(src)
	if d <= 0 {
		t.Fatal("checkpoint took no modelled time")
	}
	// Mutate the source; restart must return the snapshot, not the mutation.
	src.streams[0] = []byte("corrupted")
	rd, restored, err := cp.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if rd != d {
		t.Fatalf("restart took %v, the checkpoint it reads %v", rd, d)
	}
	if !bytes.Equal(restored[0], []byte("server0")) || !bytes.Equal(restored[1], []byte("server1-data")) {
		t.Fatalf("restored = %q", restored)
	}
}

func TestRestartWithoutCheckpointFails(t *testing.T) {
	cp := New(fastPFS())
	if _, _, err := cp.Restart(); err == nil {
		t.Fatal("restart without checkpoint succeeded")
	}
}

func TestStatsAccumulate(t *testing.T) {
	cp := New(fastPFS())
	src := &fakeSnap{streams: [][]byte{make([]byte, 1000), make([]byte, 500)}}
	cp.Checkpoint(src)
	cp.Checkpoint(src)
	count, bytesWritten, total := cp.Stats()
	if count != 2 || bytesWritten != 3000 {
		t.Fatalf("count=%d bytes=%d", count, bytesWritten)
	}
	if total <= 0 {
		t.Fatal("no cumulative time")
	}
}

func TestCheckpointCostGrowsWithData(t *testing.T) {
	pfs := simnet.PFSModel{BytesPerSecond: 1 << 20} // 1 MiB/s: visible cost
	cp := New(pfs)
	small := cp.Checkpoint(&fakeSnap{streams: [][]byte{make([]byte, 10_000)}})
	large := cp.Checkpoint(&fakeSnap{streams: [][]byte{make([]byte, 100_000)}})
	if large < 5*small {
		t.Fatalf("10x data gave %v vs %v; cost not proportional", large, small)
	}
}

// TestChargeCountsBytesNotWriters pins the PFS charge: the servers share
// the aggregate bandwidth, so the checkpoint ends when every byte is
// through, and a server with nothing staged adds no time.
func TestChargeCountsBytesNotWriters(t *testing.T) {
	pfs := simnet.PFSModel{OpenLatency: time.Millisecond, BytesPerSecond: 1 << 20}
	const s = 64 << 10
	split := New(pfs).Checkpoint(&fakeSnap{streams: [][]byte{make([]byte, s), nil, make([]byte, s), nil}})
	whole := New(pfs).Checkpoint(&fakeSnap{streams: [][]byte{make([]byte, 2*s)}})
	if split != whole {
		t.Fatalf("streams {s,0,s,0} cost %v, {2s} cost %v", split, whole)
	}
	if want := time.Millisecond + 125*time.Millisecond; whole != want {
		t.Fatalf("128 KiB at 1 MiB/s cost %v, want %v", whole, want)
	}
}
