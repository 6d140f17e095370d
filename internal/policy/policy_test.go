package policy

import (
	"math"
	"testing"

	"corec/internal/classifier"
	"corec/internal/geometry"
	"corec/internal/types"
)

func objID(x int64) types.ObjectID {
	return types.ObjectID{Var: "v", Box: geometry.Box3D(x, 0, 0, x+4, 4, 4)}
}

func corecConfig() Config {
	return Config{Mode: CoREC, NLevel: 1, K: 3, M: 1, StorageEfficiencyMin: 0.67}
}

func newCorecDecider(t *testing.T) *Decider {
	t.Helper()
	cls := classifier.New(classifier.DefaultConfig(geometry.Box3D(0, 0, 0, 64, 64, 64)))
	d, err := NewDecider(corecConfig(), cls)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestModeStringAndParse(t *testing.T) {
	for _, m := range []Mode{None, Replicate, Erasure, Hybrid, CoREC} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode parsed")
	}
}

func TestEfficiencyFormulas(t *testing.T) {
	if got := ReplicationEfficiency(1); got != 0.5 {
		t.Fatalf("E_r(1) = %v, want 0.5", got)
	}
	if got := ReplicationEfficiency(2); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("E_r(2) = %v, want 1/3", got)
	}
	if got := ErasureEfficiency(3, 1); got != 0.75 {
		t.Fatalf("E_e(3,1) = %v, want 0.75", got)
	}
	if got := ErasureEfficiency(6, 2); got != 0.75 {
		t.Fatalf("E_e(6,2) = %v, want 0.75", got)
	}
}

func TestReplicationProbabilityTableI(t *testing.T) {
	// Table I setup: RS(3+1), 1 replica, S = 67%. E_r = 0.5, E_e = 0.75.
	// P_r = 0.5*(0.67-0.75)/(0.67*(0.5-0.75)) = 0.2388...
	pr := ReplicationProbability(0.67, 1, 3, 1)
	if math.Abs(pr-0.23880597) > 1e-6 {
		t.Fatalf("P_r = %v, want ~0.2388", pr)
	}
}

func TestReplicationProbabilityBounds(t *testing.T) {
	if ReplicationProbability(0, 1, 3, 1) != 1 {
		t.Fatal("S=0 must disable the constraint")
	}
	// S at E_e exactly: nothing may be replicated.
	if pr := ReplicationProbability(0.75, 1, 3, 1); pr != 0 {
		t.Fatalf("S=E_e: P_r = %v, want 0", pr)
	}
	// S at E_r: everything may be replicated.
	if pr := ReplicationProbability(0.5, 1, 3, 1); math.Abs(pr-1) > 1e-12 {
		t.Fatalf("S=E_r: P_r = %v, want 1", pr)
	}
	// S below E_r: clamp to 1.
	if pr := ReplicationProbability(0.4, 1, 3, 1); pr != 1 {
		t.Fatalf("S<E_r: P_r = %v, want 1", pr)
	}
}

func TestMixedEfficiency(t *testing.T) {
	cfg := Config{NLevel: 1, K: 3, M: 1}
	if got := cfg.MixedEfficiency(0, 0); got != 1 {
		t.Fatal("empty store must have efficiency 1")
	}
	if got := cfg.MixedEfficiency(100, 0); got != 0.5 {
		t.Fatalf("all-replicated = %v, want 0.5", got)
	}
	if got := cfg.MixedEfficiency(0, 100); got != 0.75 {
		t.Fatalf("all-encoded = %v, want 0.75", got)
	}
	mixed := cfg.MixedEfficiency(50, 50)
	if mixed <= 0.5 || mixed >= 0.75 {
		t.Fatalf("mixed efficiency %v outside (0.5, 0.75)", mixed)
	}
}

func TestDeciderValidation(t *testing.T) {
	if _, err := NewDecider(Config{Mode: CoREC, NLevel: 1, K: 3, M: 1}, nil); err == nil {
		t.Error("CoREC without classifier accepted")
	}
	if _, err := NewDecider(Config{Mode: Replicate, NLevel: 0, K: 3, M: 1}, nil); err == nil {
		t.Error("NLevel=0 accepted")
	}
	if _, err := NewDecider(Config{Mode: Erasure, NLevel: 1, K: 0, M: 1}, nil); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewDecider(Config{Mode: None}, nil); err != nil {
		t.Errorf("None mode rejected: %v", err)
	}
}

func TestFixedModeDecisions(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		want Action
	}{
		{None, ActNone},
		{Replicate, ActReplicate},
		{Erasure, ActEncode},
	} {
		d, err := NewDecider(Config{Mode: tc.mode, NLevel: 1, K: 3, M: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.OnPut(objID(0), 1, 1.0); got != tc.want {
			t.Errorf("%v.OnPut = %v, want %v", tc.mode, got, tc.want)
		}
	}
}

func TestHybridMatchesProbability(t *testing.T) {
	d, err := NewDecider(Config{Mode: Hybrid, NLevel: 1, K: 3, M: 1, StorageEfficiencyMin: 0.67, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	repl := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if d.OnPut(objID(int64(i)), 1, 1.0) == ActReplicate {
			repl++
		}
	}
	got := float64(repl) / n
	want := d.ReplicationProbabilityValue()
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("hybrid replicated %.3f of writes, want ~%.3f", got, want)
	}
}

func TestCoRECReplicatesFreshWrites(t *testing.T) {
	d := newCorecDecider(t)
	if got := d.OnPut(objID(0), 1, 1.0); got != ActReplicate {
		t.Fatalf("fresh write = %v, want replicate", got)
	}
}

func TestCoRECEncodesUnderConstraintPressure(t *testing.T) {
	d := newCorecDecider(t)
	// Current efficiency below S: even a hot write must be encoded.
	if got := d.OnPut(objID(0), 1, 0.60); got != ActEncode {
		t.Fatalf("constrained write = %v, want encode", got)
	}
}

func TestCoRECTransitions(t *testing.T) {
	d := newCorecDecider(t)
	// Write a, b at ts=1; only b stays hot through ts=5.
	a, b := objID(0), objID(32)
	d.OnPut(a, 1, 1.0)
	d.OnPut(b, 1, 1.0)
	d.OnPut(b, 4, 1.0)
	d.OnPut(b, 5, 1.0)
	toEncode, toReplicate := d.Transitions(5, 0)
	found := false
	for _, id := range toEncode {
		if id.Key() == b.Key() {
			t.Fatal("hot object offered for demotion")
		}
		if id.Key() == a.Key() {
			found = true
		}
	}
	if !found {
		t.Fatalf("cold object not offered for demotion: %v", toEncode)
	}
	if len(toReplicate) != 0 {
		t.Fatal("promotions returned with maxPromote=0")
	}
}

func TestCoRECPromotionsRequireCurrentHeat(t *testing.T) {
	d := newCorecDecider(t)
	cls := d.Classifier()
	hot, cold := objID(0), objID(32)
	cls.Track(hot, true)
	cls.Track(cold, true)
	// hot is written right now (an update of an encoded object).
	cls.RecordWrite(hot, 10)
	_, toReplicate := d.Transitions(10, 5)
	if len(toReplicate) != 1 || toReplicate[0].Key() != hot.Key() {
		t.Fatalf("promotions = %v, want just the hot object", toReplicate)
	}
}

func TestNonCoRECNoTransitions(t *testing.T) {
	for _, mode := range []Mode{None, Replicate, Erasure, Hybrid} {
		d, err := NewDecider(Config{Mode: mode, NLevel: 1, K: 3, M: 1, Seed: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		enc, rep := d.Transitions(5, 10)
		if enc != nil || rep != nil {
			t.Fatalf("%v produced transitions", mode)
		}
	}
}

func TestActionString(t *testing.T) {
	if ActReplicate.String() != "replicate" || ActEncode.String() != "encode" || ActNone.String() != "none" {
		t.Fatal("action strings wrong")
	}
}

func TestNonCoRECDropsClassifier(t *testing.T) {
	cls := classifier.New(classifier.DefaultConfig(geometry.Box3D(0, 0, 0, 64, 64, 64)))
	for _, mode := range []Mode{None, Replicate, Erasure, Hybrid} {
		d, err := NewDecider(Config{Mode: mode, NLevel: 1, K: 3, M: 1, StorageEfficiencyMin: 0.67}, cls)
		if err != nil {
			t.Fatal(err)
		}
		if d.Classifier() != nil || d.DemotesInBackground() {
			t.Fatalf("%v kept the classifier or demotes in the background", mode)
		}
	}
	if cls.NumTracked() != 0 {
		t.Fatal("a mode without a classifier wrote to the one it was handed")
	}
	if !newCorecDecider(t).DemotesInBackground() {
		t.Fatal("CoREC does not demote in the background")
	}
}

func TestClassifierBooksAreNoOpsWithoutClassifier(t *testing.T) {
	d, err := NewDecider(Config{Mode: Erasure, NLevel: 1, K: 3, M: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := objID(0)
	d.Track(id, true)
	d.SetEncoded(id, false)
	d.Forget(id)
	if d.StaysReplicated(id, 0, 0) {
		t.Fatal("an object stays replicated with no classifier to find it hot")
	}
}

func TestClassifierBooksReachTheClassifier(t *testing.T) {
	d := newCorecDecider(t)
	cls := d.Classifier()
	id := objID(0)
	d.Track(id, true)
	if cls.NumTracked() != 1 {
		t.Fatalf("Track: %d tracked, want 1", cls.NumTracked())
	}
	if got := cls.HeatCandidates(1); len(got) != 1 {
		t.Fatalf("tracked encoded object not in the promotion pool: %v", got)
	}
	d.SetEncoded(id, false)
	if got := cls.HeatCandidates(1); len(got) != 0 {
		t.Fatalf("SetEncoded(false) left the object in the promotion pool: %v", got)
	}
	d.Forget(id)
	if cls.NumTracked() != 0 {
		t.Fatalf("Forget: %d tracked, want 0", cls.NumTracked())
	}
}

func TestStaysReplicatedNeedsHeatAndRoom(t *testing.T) {
	d := newCorecDecider(t)
	hot, cold := objID(0), objID(32)
	d.OnPut(hot, 5, 1.0)
	d.Track(cold, false)
	d.Transitions(5, 0)
	// 100 replicated bytes and 300 encoded: efficiency 400/(200+400) = 0.667,
	// just below S = 0.67; at 100 and 400 it is 0.682, above.
	if d.StaysReplicated(hot, 100, 300) {
		t.Fatal("a hot object stays replicated past the constraint")
	}
	if !d.StaysReplicated(hot, 100, 400) {
		t.Fatal("a hot object with room under the constraint was demoted")
	}
	if d.StaysReplicated(cold, 100, 400) {
		t.Fatal("a cold object stays replicated")
	}
}

func TestAdmitsAtTheBoundary(t *testing.T) {
	// RS(3+1), one replica: 100 replicated and 300 encoded bytes take 200
	// and 400 raw, efficiency 400/600 = 2/3 exactly.
	exact := Config{NLevel: 1, K: 3, M: 1}.MixedEfficiency(100, 300)
	for _, tc := range []struct {
		s    float64
		want bool
	}{
		{0, true},
		{exact, true},
		{math.Nextafter(exact, 1), false},
		{math.Nextafter(exact, 0), true},
	} {
		d, err := NewDecider(Config{Mode: CoREC, NLevel: 1, K: 3, M: 1, StorageEfficiencyMin: tc.s}, classifier.New(classifier.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Admits(100, 300); got != tc.want {
			t.Errorf("S = %v: Admits(100, 300) at efficiency %v = %v, want %v", tc.s, exact, got, tc.want)
		}
		// OnPut weighs the same bound: below it a write is encoded.
		if act := d.OnPut(objID(0), 1, exact); (act == ActReplicate) != tc.want {
			t.Errorf("S = %v: OnPut at efficiency %v = %v", tc.s, exact, act)
		}
	}
}

// serverLoopBudget is the promotion budget as the staging server computed it
// before the policy package owned it: a walk over the encoded objects'
// sizes, then their average moved one at a time from encoded to replicated
// bytes while the mix stays at or above S.
func serverLoopBudget(cfg Config, dataRepl, dataEnc int64, sizes []int64) int {
	sMin := cfg.StorageEfficiencyMin
	if sMin <= 0 {
		return 1 << 20
	}
	var objBytes int64
	for _, n := range sizes {
		objBytes += n
	}
	objCount := len(sizes)
	if objCount == 0 {
		return 0
	}
	avg := objBytes / int64(objCount)
	if avg == 0 {
		avg = 1
	}
	budget := 0
	for i := 0; i < objCount; i++ {
		dataRepl += avg
		dataEnc -= avg
		if cfg.MixedEfficiency(dataRepl, dataEnc) < sMin {
			break
		}
		budget++
	}
	return budget
}

func TestPromotionBudgetMatchesServerLoop(t *testing.T) {
	sizes := func(n int, each int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = each
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		s     float64
		repl  int64
		sizes []int64
		want  int
	}{
		{"no constraint", 0, 100, sizes(3, 100), 1 << 20},
		{"no encoded objects", 0.67, 100, nil, 0},
		{"zero average size", 0.67, 0, sizes(4, 0), 4},
		{"all fit", 0.5, 0, sizes(5, 100), 5},
		{"none fit", 0.75, 0, sizes(5, 100), 0},
		// 100 replicated, 500 encoded in five objects: one promotion leaves
		// 200/400, efficiency exactly 2/3; a second 300/300 falls to 0.6.
		{"exact boundary", Config{NLevel: 1, K: 3, M: 1}.MixedEfficiency(200, 400), 100, sizes(5, 100), 1},
		{"uneven sizes", 0.67, 1000, []int64{10, 2000, 333, 7}, 0},
		{"uneven sizes, looser S", 0.6, 1000, []int64{10, 2000, 333, 7}, 1},
		{"uneven sizes, loosest S", 0.55, 1000, []int64{10, 2000, 333, 7}, 2},
	} {
		cfg := Config{Mode: CoREC, NLevel: 1, K: 3, M: 1, StorageEfficiencyMin: tc.s}
		d, err := NewDecider(cfg, classifier.New(classifier.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		var enc int64
		for _, n := range tc.sizes {
			enc += n
		}
		want := serverLoopBudget(cfg, tc.repl, enc, tc.sizes)
		if want != tc.want {
			t.Fatalf("%s: the server loop gives %d, the table says %d", tc.name, want, tc.want)
		}
		if got := d.PromotionBudget(tc.repl, enc, len(tc.sizes)); got != want {
			t.Errorf("%s: PromotionBudget = %d, the server loop gave %d", tc.name, got, want)
		}
	}
}
