package explore

import (
	"strings"
	"testing"

	"afex/internal/faultspace"
)

func smallSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("x", 0, 9),
		faultspace.IntAxis("y", 0, 9),
	))
}

// drive runs an explorer for n steps with the given impact function,
// returning the executed candidates in order.
func drive(ex Explorer, n int, impact func(faultspace.Point) float64) []Candidate {
	var out []Candidate
	for i := 0; i < n; i++ {
		c, ok := ex.Next()
		if !ok {
			break
		}
		v := impact(c.Point)
		ex.Report(c, v, v)
		out = append(out, c)
	}
	return out
}

func zeroImpact(faultspace.Point) float64 { return 0 }

func TestFitnessGuidedNeverRepeats(t *testing.T) {
	space := smallSpace()
	ex := NewFitnessGuided(space, Config{Seed: 1})
	seen := map[string]bool{}
	for _, c := range drive(ex, 100, func(p faultspace.Point) float64 { return float64(p.Fault[0]) }) {
		k := c.Point.Key()
		if seen[k] {
			t.Fatalf("point %s executed twice", k)
		}
		seen[k] = true
	}
	if len(seen) != 100 {
		t.Fatalf("executed %d distinct tests, want 100 (space has 100)", len(seen))
	}
}

func TestFitnessGuidedExhaustsSpace(t *testing.T) {
	space := smallSpace()
	ex := NewFitnessGuided(space, Config{Seed: 2})
	got := drive(ex, 1000, zeroImpact)
	if len(got) != 100 {
		t.Fatalf("executed %d tests, want exactly the space size 100", len(got))
	}
	if _, ok := ex.Next(); ok {
		t.Error("Next returned a candidate after exhausting the space")
	}
}

func TestFitnessGuidedInitialBatchIsRandom(t *testing.T) {
	space := smallSpace()
	ex := NewFitnessGuided(space, Config{Seed: 3})
	ex.seedsLeft = 10
	for i, c := range drive(ex, 10, zeroImpact) {
		if c.MutatedAxis != -1 || c.ParentKey != "" {
			t.Fatalf("seed %d is not random: %+v", i, c)
		}
	}
}

func TestFitnessGuidedMutatesOneAxis(t *testing.T) {
	space := smallSpace()
	ex := NewFitnessGuided(space, Config{Seed: 4})
	ex.seedsLeft = 5
	cands := drive(ex, 80, func(p faultspace.Point) float64 { return 10 })
	mutations := 0
	for _, c := range cands {
		if c.MutatedAxis < 0 {
			continue
		}
		mutations++
		if c.ParentKey == "" {
			t.Fatal("mutated candidate lacks a parent")
		}
		if c.MutatedAxis >= 2 {
			t.Fatalf("axis %d out of range", c.MutatedAxis)
		}
	}
	if mutations == 0 {
		t.Fatal("no mutations occurred despite uniform positive fitness")
	}
}

// TestFitnessGuidedExploitsStructure is the core behavioural property:
// on a structured impact surface the algorithm must find significantly
// more high-impact faults than random sampling with the same budget.
func TestFitnessGuidedExploitsStructure(t *testing.T) {
	mk := func() *faultspace.Union {
		return faultspace.NewUnion(faultspace.New("s",
			faultspace.IntAxis("x", 0, 39),
			faultspace.IntAxis("y", 0, 39),
		))
	}
	// High-impact ridge: a single column (x == 7), 40 of 1600 points.
	ridge := func(p faultspace.Point) float64 {
		if p.Fault[0] == 7 {
			return 10
		}
		return 0
	}
	count := func(cands []Candidate) int {
		n := 0
		for _, c := range cands {
			if c.Point.Fault[0] == 7 {
				n++
			}
		}
		return n
	}
	fitTotal, rndTotal := 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		fitTotal += count(drive(NewFitnessGuided(mk(), Config{Seed: seed}), 200, ridge))
		rndTotal += count(drive(NewRandom(mk(), seed), 200, ridge))
	}
	if fitTotal <= rndTotal*2 {
		t.Errorf("fitness found %d ridge points vs random %d; want a clear structural advantage", fitTotal, rndTotal)
	}
}

func TestFitnessGuidedSensitivityTracksProductiveAxis(t *testing.T) {
	space := faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("x", 0, 39),
		faultspace.IntAxis("y", 0, 39),
	))
	// Impact depends only on y (a horizontal band): from a point inside
	// the band, mutating x stays in the band and keeps scoring, while
	// mutating y usually leaves it. The x axis is therefore the
	// high-density direction (§2's "walking along the stripe"), and its
	// sensitivity should come to dominate.
	impact := func(p faultspace.Point) float64 {
		if p.Fault[1] >= 10 && p.Fault[1] < 20 {
			return 10
		}
		return 0
	}
	ex := NewFitnessGuided(space, Config{Seed: 6})
	drive(ex, 400, impact)
	s := ex.Sensitivities(0)
	if s[0] <= s[1] {
		t.Errorf("sensitivity x=%.2f y=%.2f; the in-band axis should dominate", s[0], s[1])
	}
}

func TestFitnessGuidedCountersAndHistory(t *testing.T) {
	space := smallSpace()
	ex := NewFitnessGuided(space, Config{Seed: 7})
	drive(ex, 30, zeroImpact)
	if ex.Executed() != 30 {
		t.Errorf("Executed = %d", ex.Executed())
	}
	if ex.HistorySize() != 30 {
		t.Errorf("HistorySize = %d", ex.HistorySize())
	}
}

func TestFitnessGuidedDeterministic(t *testing.T) {
	keysOf := func(seed int64) []string {
		ex := NewFitnessGuided(smallSpace(), Config{Seed: seed})
		var keys []string
		for _, c := range drive(ex, 50, func(p faultspace.Point) float64 { return float64(p.Fault[1]) }) {
			keys = append(keys, c.Point.Key())
		}
		return keys
	}
	a, b := keysOf(42), keysOf(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := keysOf(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical explorations")
	}
}

func TestRandomNeverRepeatsAndExhausts(t *testing.T) {
	space := smallSpace()
	r := NewRandom(space, 1)
	seen := map[string]bool{}
	for {
		c, ok := r.Next()
		if !ok {
			break
		}
		if seen[c.Point.Key()] {
			t.Fatalf("random repeated %s", c.Point.Key())
		}
		seen[c.Point.Key()] = true
		r.Report(c, 0, 0)
	}
	if len(seen) != 100 {
		t.Fatalf("random exhausted after %d of 100 points", len(seen))
	}
}

func TestExhaustiveCompleteAndOrdered(t *testing.T) {
	space := smallSpace()
	e := NewExhaustive(space)
	var prev faultspace.Fault
	n := 0
	for {
		c, ok := e.Next()
		if !ok {
			break
		}
		if n > 0 {
			// Lexicographic: previous < current.
			less := false
			for i := range prev {
				if prev[i] != c.Point.Fault[i] {
					less = prev[i] < c.Point.Fault[i]
					break
				}
			}
			if !less {
				t.Fatalf("enumeration out of order at step %d", n)
			}
		}
		prev = c.Point.Fault.Clone()
		n++
	}
	if n != 100 {
		t.Fatalf("exhaustive visited %d points, want 100", n)
	}
}

func TestNewByName(t *testing.T) {
	space := smallSpace()
	for name, wantErr := range map[string]bool{
		"fitness": false, "fitness-guided": false, "random": false,
		"exhaustive": false, "genetic": false, "portfolio": false,
		"simulated-annealing": true,
	} {
		got, err := New(name, space, Config{Seed: 1})
		if (err != nil) != wantErr {
			t.Errorf("New(%q) err=%v, want error=%v", name, err, wantErr)
		}
		if err == nil && got == nil {
			t.Errorf("New(%q) returned nil explorer without error", name)
		}
		if err != nil && !strings.Contains(err.Error(), "valid:") {
			t.Errorf("New(%q) error %q does not list the valid names", name, err)
		}
	}
}

// TestStrategiesListsRegistry: the registry's name list is what error
// messages and CLIs print; it must contain every built-in strategy in
// sorted order.
func TestStrategiesListsRegistry(t *testing.T) {
	got := Strategies()
	want := []string{"exhaustive", "fitness", "genetic", "portfolio", "random"}
	if len(got) != len(want) {
		t.Fatalf("Strategies() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Strategies() = %v, want %v", got, want)
		}
	}
}

func TestAblationFlagsStillExplore(t *testing.T) {
	// Every ablation variant must remain a functioning explorer.
	for _, cfg := range []Config{
		{Seed: 1, NoAging: true},
		{Seed: 1, NoSensitivity: true},
		{Seed: 1, UniformMutation: true},
		{Seed: 1, Greedy: true},
	} {
		ex := NewFitnessGuided(smallSpace(), cfg)
		if got := len(drive(ex, 50, func(p faultspace.Point) float64 { return 1 })); got != 50 {
			t.Errorf("%+v executed %d/50", cfg, got)
		}
	}
}

func TestAxisWindowRolls(t *testing.T) {
	w := newAxisWindow(3)
	for _, v := range []float64{1, 2, 3} {
		w.push(v)
	}
	if w.sensitivity() != 6 {
		t.Fatalf("sum = %v, want 6", w.sensitivity())
	}
	w.push(10) // evicts 1
	if w.sensitivity() != 15 {
		t.Fatalf("rolling sum = %v, want 15", w.sensitivity())
	}
	w.push(0) // evicts 2
	w.push(0) // evicts 3
	w.push(0) // evicts 10
	if w.sensitivity() != 0 {
		t.Fatalf("sum after evicting all = %v", w.sensitivity())
	}
}

func TestHoleySpaceMutationRespectsHoles(t *testing.T) {
	s := faultspace.New("h", faultspace.IntAxis("x", 0, 9), faultspace.IntAxis("y", 0, 9))
	s.Hole = func(f faultspace.Fault) bool { return f[0] == 5 }
	space := faultspace.NewUnion(s)
	ex := NewFitnessGuided(space, Config{Seed: 9})
	for _, c := range drive(ex, 60, func(p faultspace.Point) float64 { return 5 }) {
		if c.Point.Fault[0] == 5 {
			t.Fatalf("explorer produced hole point %v", c.Point.Fault)
		}
	}
}
