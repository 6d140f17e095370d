package workload

import (
	"testing"

	"corec/internal/geometry"
)

func baseConfig(p Pattern) Config {
	return Config{
		Pattern:   p,
		Domain:    geometry.Box3D(0, 0, 0, 64, 64, 64),
		BlockSize: []int64{16, 16, 16},
		TimeSteps: 8,
		Var:       "f",
		Seed:      3,
	}
}

func TestCase1WritesEverythingEveryStep(t *testing.T) {
	w, err := Generate(baseConfig(Case1WriteAll))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Steps) != 8 {
		t.Fatalf("steps = %d", len(w.Steps))
	}
	for _, s := range w.Steps {
		if len(s.Writes) != 64 {
			t.Fatalf("ts %d wrote %d blocks, want 64", s.TS, len(s.Writes))
		}
		if geometry.CoverVolume(s.Writes) != w.Cfg.Domain.Volume() {
			t.Fatal("writes do not cover the domain")
		}
		if len(s.Reads) != 1 {
			t.Fatal("missing full-domain read")
		}
	}
}

func TestCase2QuartersCycleAndCover(t *testing.T) {
	w, err := Generate(baseConfig(Case2RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	// Four consecutive steps must cover the whole domain exactly once.
	var all []geometry.Box
	for _, s := range w.Steps[:4] {
		all = append(all, s.Writes...)
	}
	if geometry.CoverVolume(all) != w.Cfg.Domain.Volume() || !geometry.Disjoint(all) {
		t.Fatal("four quarters do not tile the domain")
	}
	// Step 5 repeats step 1's quarter.
	if w.Steps[4].Writes[0].Key() != w.Steps[0].Writes[0].Key() {
		t.Fatal("round robin did not cycle")
	}
}

func TestCase3HotspotPattern(t *testing.T) {
	w, err := Generate(baseConfig(Case3Hotspot))
	if err != nil {
		t.Fatal(err)
	}
	// Step 1 writes everything; later steps only the hot quarter.
	if geometry.CoverVolume(w.Steps[0].Writes) != w.Cfg.Domain.Volume() {
		t.Fatal("first step does not populate the domain")
	}
	hot := w.Steps[1].Writes
	if geometry.CoverVolume(hot)*4 != w.Cfg.Domain.Volume() {
		t.Fatalf("hot set covers %d cells, want a quarter of the domain", geometry.CoverVolume(hot))
	}
	for _, s := range w.Steps[1:] {
		if len(s.Writes) != len(hot) {
			t.Fatal("hot set changed size across steps")
		}
	}
}

func TestCase4RandomSubsetsDeterministic(t *testing.T) {
	a, err := Generate(baseConfig(Case4Random))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(baseConfig(Case4Random))
	for i := range a.Steps {
		if len(a.Steps[i].Writes) != len(b.Steps[i].Writes) {
			t.Fatal("same seed produced different traces")
		}
		for j := range a.Steps[i].Writes {
			if !a.Steps[i].Writes[j].Equal(b.Steps[i].Writes[j]) {
				t.Fatal("same seed produced different blocks")
			}
		}
	}
	// Default fraction: a quarter of 64 blocks = 16 per step (after the
	// populating first step).
	if got := len(a.Steps[2].Writes); got != 16 {
		t.Fatalf("random step wrote %d blocks, want 16", got)
	}
	// Different seed: different trace (with overwhelming probability).
	cfg := baseConfig(Case4Random)
	cfg.Seed = 99
	c, _ := Generate(cfg)
	same := true
	for i := range a.Steps {
		for j := range a.Steps[i].Writes {
			if j < len(c.Steps[i].Writes) && !a.Steps[i].Writes[j].Equal(c.Steps[i].Writes[j]) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestCase5ReadDominated(t *testing.T) {
	w, err := Generate(baseConfig(Case5ReadAll))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Steps[0].Writes) != 64 {
		t.Fatal("first step must populate the domain")
	}
	for _, s := range w.Steps[1:] {
		if len(s.Writes) != 0 {
			t.Fatal("read-only steps contain writes")
		}
		if len(s.Reads) != 1 || !s.Reads[0].Equal(w.Cfg.Domain) {
			t.Fatal("missing full-domain read")
		}
	}
}

func TestS3DWorkload(t *testing.T) {
	w, err := Generate(baseConfig(S3D))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w.Steps {
		if len(s.Writes) != 64 || len(s.Reads) != 1 {
			t.Fatal("S3D steps must write all blocks and read the domain")
		}
	}
	if w.TotalWriteCells() != 8*w.Cfg.Domain.Volume() {
		t.Fatalf("TotalWriteCells = %d", w.TotalWriteCells())
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := baseConfig(Case1WriteAll)
	cfg.TimeSteps = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("zero steps accepted")
	}
	cfg = baseConfig(Case1WriteAll)
	cfg.BlockSize = []int64{16}
	if _, err := Generate(cfg); err == nil {
		t.Fatal("bad block dims accepted")
	}
	cfg = baseConfig(Pattern(42))
	if _, err := Generate(cfg); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestTableIIScales(t *testing.T) {
	scales := TableIIScales(16)
	if len(scales) != 3 {
		t.Fatalf("got %d scales", len(scales))
	}
	// Writer counts double at each scale: 64, 128, 256.
	if scales[0].Writers != 64 || scales[1].Writers != 128 || scales[2].Writers != 256 {
		t.Fatalf("writer progression: %d %d %d", scales[0].Writers, scales[1].Writers, scales[2].Writers)
	}
	for _, sc := range scales {
		// Paper ratios: 16 writers per staging server, 2 staging per reader.
		if sc.Writers/sc.Staging != 16 {
			t.Fatalf("%s: writers/staging = %d, want 16", sc.Name, sc.Writers/sc.Staging)
		}
		if sc.Staging/sc.Readers != 2 {
			t.Fatalf("%s: staging/readers = %d, want 2", sc.Name, sc.Staging/sc.Readers)
		}
		// Domain must decompose exactly into writer blocks.
		blocks, err := geometry.GridDecompose(sc.Domain, sc.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != sc.Writers {
			t.Fatalf("%s: %d blocks for %d writers", sc.Name, len(blocks), sc.Writers)
		}
	}
}
