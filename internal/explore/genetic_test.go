package explore

import (
	"testing"

	"afex/internal/faultspace"
)

func TestGeneticNeverRepeats(t *testing.T) {
	ex := NewGenetic(smallSpace(), 1)
	seen := map[string]bool{}
	for _, c := range drive(ex, 100, func(p faultspace.Point) float64 { return float64(p.Fault[0]) }) {
		if seen[c.Point.Key()] {
			t.Fatalf("point %s executed twice", c.Point.Key())
		}
		seen[c.Point.Key()] = true
	}
	if len(seen) != 100 {
		t.Fatalf("executed %d distinct tests, want 100", len(seen))
	}
}

func TestGeneticExhaustsSpace(t *testing.T) {
	ex := NewGenetic(smallSpace(), 2)
	got := drive(ex, 1000, zeroImpact)
	if len(got) != 100 {
		t.Fatalf("executed %d tests, want the whole 100-point space", len(got))
	}
	if _, ok := ex.Next(); ok {
		t.Error("Next returned a candidate after exhausting the space")
	}
}

func TestGeneticBeatsRandomButLosesToFitnessGuided(t *testing.T) {
	// The §3 claim in miniature: on a ridge-structured surface the GA
	// improves on random sampling (selection does help) but the
	// ridge-following fitness-guided algorithm beats it.
	mk := func() *faultspace.Union {
		return faultspace.NewUnion(faultspace.New("s",
			faultspace.IntAxis("x", 0, 39),
			faultspace.IntAxis("y", 0, 39),
		))
	}
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
	gen, rnd, fit := 0, 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		gen += count(drive(NewGenetic(mk(), seed), 200, ridge))
		rnd += count(drive(NewRandom(mk(), seed), 200, ridge))
		fit += count(drive(NewFitnessGuided(mk(), Config{Seed: seed}), 200, ridge))
	}
	if gen <= rnd {
		t.Errorf("genetic (%d) did not beat random (%d) on a structured surface", gen, rnd)
	}
	if fit <= gen {
		t.Errorf("fitness-guided (%d) did not beat genetic (%d); the paper abandoned the GA for a reason", fit, gen)
	}
}

func TestGeneticHandlesHoles(t *testing.T) {
	s := faultspace.New("h", faultspace.IntAxis("x", 0, 9), faultspace.IntAxis("y", 0, 9))
	s.Hole = func(f faultspace.Fault) bool { return f[0] == 5 }
	ex := NewGenetic(faultspace.NewUnion(s), 3)
	for _, c := range drive(ex, 60, func(p faultspace.Point) float64 { return 5 }) {
		if c.Point.Fault[0] == 5 {
			t.Fatalf("genetic explorer produced hole point %v", c.Point.Fault)
		}
	}
}

func TestNewGeneticByName(t *testing.T) {
	ex, err := New("genetic", smallSpace(), Config{Seed: 1})
	if err != nil || ex == nil {
		t.Fatalf("New(\"genetic\") = %v, %v", ex, err)
	}
}
