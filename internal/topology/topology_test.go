package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"corec/internal/types"
)

func TestUniformRingProperty(t *testing.T) {
	// The paper's example: 12 servers, groups of 2 (replication) and 3
	// (coding), spread over enough cabinets that any group window spans
	// distinct cabinets.
	top, err := Uniform(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumServers() != 12 || top.FailureDomains() != 4 {
		t.Fatalf("servers=%d domains=%d", top.NumServers(), top.FailureDomains())
	}
	// Any window of size <= FailureDomains must hit distinct cabinets.
	for w := 2; w <= top.FailureDomains(); w++ {
		for s := 0; s < top.NumServers(); s++ {
			win := top.RingWindow(types.ServerID(s), w)
			if !top.DistinctDomains(win) {
				t.Fatalf("window size %d at %d spans a repeated cabinet: %v", w, s, win)
			}
		}
	}
}

func TestRingWindowWraps(t *testing.T) {
	top, err := Uniform(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	win := top.RingWindow(4, 4)
	want := []types.ServerID{4, 5, 0, 1}
	for i := range want {
		if win[i] != want[i] {
			t.Fatalf("RingWindow = %v, want %v", win, want)
		}
	}
	if top.RingNext(5) != 0 {
		t.Fatal("RingNext does not wrap")
	}
}

func TestNewPreservesAllServers(t *testing.T) {
	servers := []Server{
		{Physical: 0, Cabinet: 0}, {Physical: 1, Cabinet: 0},
		{Physical: 2, Cabinet: 1}, {Physical: 3, Cabinet: 1},
		{Physical: 4, Cabinet: 2},
	}
	top, err := New(servers)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < top.NumServers(); i++ {
		seen[top.Server(types.ServerID(i)).Physical] = true
	}
	if len(seen) != 5 {
		t.Fatalf("reordering lost servers: %v", seen)
	}
}

func TestNewInterleavesUnevenCabinets(t *testing.T) {
	// 4 servers in cabinet 0, 1 in cabinet 1: ring must still alternate
	// while cabinet 1 has servers left.
	servers := []Server{
		{Physical: 0, Cabinet: 0}, {Physical: 1, Cabinet: 0},
		{Physical: 2, Cabinet: 0}, {Physical: 3, Cabinet: 0},
		{Physical: 4, Cabinet: 1},
	}
	top, err := New(servers)
	if err != nil {
		t.Fatal(err)
	}
	if top.Server(0).Cabinet != 0 || top.Server(1).Cabinet != 1 {
		t.Fatalf("first two ring slots share cabinet: %v %v", top.Server(0), top.Server(1))
	}
}

func TestTopologyErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty server list accepted")
	}
	if _, err := Uniform(0, 1); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := Uniform(4, 5); err == nil {
		t.Error("more cabinets than servers accepted")
	}
	if _, err := Uniform(4, 0); err == nil {
		t.Error("zero cabinets accepted")
	}
}

func TestRingWindowDistinctDomainsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func() bool {
		cab := 2 + rng.Intn(6)
		perCab := 1 + rng.Intn(5)
		n := cab * perCab
		top, err := Uniform(n, cab)
		if err != nil {
			return false
		}
		w := 2 + rng.Intn(cab-1)
		s := rng.Intn(n)
		return top.DistinctDomains(top.RingWindow(types.ServerID(s), w))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
