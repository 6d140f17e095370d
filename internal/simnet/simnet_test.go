package simnet

import (
	"testing"
	"time"
)

func TestZeroModelIsFree(t *testing.T) {
	var m LinkModel
	if !m.IsFree() {
		t.Fatal("zero model not free")
	}
	if m.Delay(1<<20) != 0 {
		t.Fatal("free model produced a delay")
	}
}

func TestDelayComposition(t *testing.T) {
	m := LinkModel{Latency: time.Millisecond, BytesPerSecond: 1000}
	// 500 bytes at 1000 B/s = 500ms, plus 1ms latency.
	got := m.Delay(500)
	want := time.Millisecond + 500*time.Millisecond
	if got != want {
		t.Fatalf("Delay = %v, want %v", got, want)
	}
}

func TestDelayScaling(t *testing.T) {
	m := LinkModel{Latency: 100 * time.Millisecond, Scale: 0.1}
	if got := m.Delay(0); got != 10*time.Millisecond {
		t.Fatalf("scaled Delay = %v, want 10ms", got)
	}
}

func TestDelayMonotonicInSize(t *testing.T) {
	m := Titan(1)
	last := time.Duration(-1)
	for _, size := range []int{0, 1, 1024, 1 << 20, 64 << 20} {
		d := m.Delay(size)
		if d < last {
			t.Fatalf("Delay not monotonic at size %d", size)
		}
		last = d
	}
}

func TestPFSWriteDelaySharesBandwidth(t *testing.T) {
	p := PFSModel{BytesPerSecond: 1000}
	one := p.WriteDelay(1000, 1)
	four := p.WriteDelay(1000, 4)
	if four != 4*one {
		t.Fatalf("4 writers = %v, want 4x single writer %v", four, one)
	}
	if p.WriteDelay(1000, 0) != one {
		t.Fatal("writers<1 not clamped")
	}
}

func TestTitanFasterThanLustre(t *testing.T) {
	// The staging fabric must beat the PFS by a wide margin for any
	// realistic transfer; this ordering is what makes staging worthwhile.
	link := Titan(1)
	pfs := PFSModel{OpenLatency: 5 * time.Millisecond, BytesPerSecond: 1 << 30} // a Lustre scratch system
	size := 16 << 20
	if link.Delay(size)*10 > pfs.WriteDelay(size, 8) {
		t.Fatal("fabric not decisively faster than PFS")
	}
}
