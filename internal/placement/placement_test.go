package placement

import (
	"testing"

	"corec/internal/geometry"
	"corec/internal/types"
)

func TestHashDeterministic(t *testing.T) {
	p := NewHash(8)
	id := types.ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 4, 4, 4)}
	if p.Primary(id) != p.Primary(id) {
		t.Fatal("Primary not deterministic")
	}
	if p.DirectoryShard(id.Key()) != p.DirectoryShard(id.Key()) {
		t.Fatal("DirectoryShard not deterministic")
	}
	if len(p.Members()) != 8 || p.Epoch() != 0 {
		t.Fatalf("members %v at epoch %d, want 0..7 at 0", p.Members(), p.Epoch())
	}
}

func TestHashInRange(t *testing.T) {
	p := NewHash(5)
	for i := int64(0); i < 100; i++ {
		id := types.ObjectID{Var: "v", Box: geometry.Box3D(i*4, 0, 0, i*4+4, 4, 4)}
		if s := p.Primary(id); s < 0 || int(s) >= 5 {
			t.Fatalf("Primary out of range: %d", s)
		}
		if s := p.DirectoryShard(id.Key()); s < 0 || int(s) >= 5 {
			t.Fatalf("DirectoryShard out of range: %d", s)
		}
	}
}

func TestHashSpreadsLoad(t *testing.T) {
	p := NewHash(8)
	counts := make(map[types.ServerID]int)
	for i := int64(0); i < 512; i++ {
		id := types.ObjectID{Var: "v", Box: geometry.Box3D(i*4, 0, 0, i*4+4, 4, 4)}
		counts[p.Primary(id)]++
	}
	for s, c := range counts {
		if c < 16 || c > 192 {
			t.Fatalf("server %d got %d of 512 objects; placement badly skewed", s, c)
		}
	}
	if len(counts) != 8 {
		t.Fatalf("only %d servers used", len(counts))
	}
}

func TestHashPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 accepted")
		}
	}()
	NewHash(0)
}

// TestDirectoryBackupDistinct checks the one-mirror group: the backup is
// the ring successor, wraps, and collapses onto the primary when there is
// no second server.
func TestDirectoryBackupDistinct(t *testing.T) {
	if g := DirectoryGroup(3, 8, 1); len(g) != 2 || g[1] != 4 {
		t.Fatalf("group %v: backup is not ring successor", g)
	}
	if g := DirectoryGroup(7, 8, 1); len(g) != 2 || g[1] != 0 {
		t.Fatalf("group %v: backup does not wrap", g)
	}
	if g := DirectoryGroup(0, 1, 1); len(g) != 1 || g[0] != 0 {
		t.Fatalf("group %v: single-server group must be the primary alone", g)
	}
}

func TestDirectoryGroup(t *testing.T) {
	g := DirectoryGroup(6, 8, 2)
	want := []types.ServerID{6, 7, 0}
	if len(g) != 3 {
		t.Fatalf("group size %d, want 3", len(g))
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("DirectoryGroup = %v, want %v", g, want)
		}
	}
	// Mirrors clamp to n-1.
	if got := DirectoryGroup(0, 3, 9); len(got) != 3 {
		t.Fatalf("clamped group = %v", got)
	}
	// Zero mirrors bumps to 1 (always at least one backup when n > 1).
	if got := DirectoryGroup(0, 4, 0); len(got) != 2 {
		t.Fatalf("min-mirror group = %v", got)
	}
}
