package explore

// What generation costs and what a candidate carries: the allocation
// pins of the rejection loop, Random's completeness, and the scenario
// key riding on the Candidate through every wrapper.

import (
	"testing"

	"afex/internal/faultspace"
)

func wideSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("w",
		faultspace.IntAxis("testID", 0, 99),
		faultspace.IntAxis("function", 0, 99),
		faultspace.IntAxis("callNumber", 0, 99),
	))
}

// minedOut is a fitness explorer whose pool is one test with every
// neighbour — every point one mutation away — already in History: each
// Next rejects 100 mutations, then accepts a random seed.
func minedOut(t *testing.T) *FitnessGuided {
	t.Helper()
	fg := NewFitnessGuided(wideSpace(), Config{Seed: 3})
	fg.seedsLeft = 1
	c, _ := fg.Next()
	fg.Report(c, 1, 1)
	for axis := range c.Point.Fault {
		for v := 0; v < 100; v++ {
			n := faultspace.Point{Sub: c.Point.Sub, Fault: c.Point.Fault.Clone()}
			n.Fault[axis] = v
			fg.history.Add(n.Key())
		}
	}
	return fg
}

func TestRejectedAttemptsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	fg := minedOut(t)
	const runs = 200
	draws, fallbacks := fg.rng.State().Draws, KeyFallbacks()
	allocs := testing.AllocsPerRun(runs, func() {
		if c, ok := fg.Next(); !ok || c.MutatedAxis != -1 {
			t.Fatalf("Next = %+v, %v; want a random seed", c, ok)
		}
	})
	// A mutation attempt is at least three draws (parent, axis, value).
	if perNext := (fg.rng.State().Draws - draws) / (runs + 1); perNext < 300 {
		t.Fatalf("%d draws per Next: the 100 rejected mutations did not happen", perNext)
	}
	// The accepted seed's fault, its key string, amortised queued growth.
	if allocs > 3 {
		t.Errorf("Next allocates %v objects after 100 rejected attempts, want <= 3", allocs)
	}
	if n := KeyFallbacks() - fallbacks; n != 0 {
		t.Errorf("%d keys rendered outside admit", n)
	}

	cands := make([]Candidate, runs+1)
	for i := range cands {
		cands[i], _ = fg.Next()
	}
	i := 0
	allocs = testing.AllocsPerRun(runs, func() {
		fg.Report(cands[i], 1, 0.5)
		i++
	})
	// The pool entry and amortised History growth; the key came along.
	if allocs > 2 {
		t.Errorf("Report allocates %v objects, want <= 2", allocs)
	}
}

// TestRandomHandsOutEveryPoint: sampling without replacement must reach
// the last point. Before the explorers shared one fallback scan, Random
// gave up after 10 000 rejected draws — with one point of 50 000 left,
// nine times in ten.
func TestRandomHandsOutEveryPoint(t *testing.T) {
	space := faultspace.NewUnion(faultspace.New("r",
		faultspace.IntAxis("a", 0, 49), faultspace.IntAxis("b", 0, 999)))
	r := NewRandom(space, 11)
	seen := make(map[string]bool)
	for {
		c, ok := r.Next()
		if !ok {
			break
		}
		if seen[c.Key()] {
			t.Fatalf("point %s handed out twice", c.Key())
		}
		seen[c.Key()] = true
	}
	if len(seen) != 50000 || r.HistorySize() != 50000 {
		t.Fatalf("handed out %d of 50000 points (History %d)", len(seen), r.HistorySize())
	}
}

// TestCandidateKeyIsPointKey: whatever built a candidate and whichever
// wrappers it crossed, Key() is its point's key — carried for generated
// candidates (no fallback render), rendered for hand-built ones.
func TestCandidateKeyIsPointKey(t *testing.T) {
	prior := NewKeySet([]string{"0:0,0,0", "0:3,1,4"})
	stacks := map[string]func() Explorer{
		"fitness":   func() Explorer { return NewFitnessGuided(stateSpace(), Config{Seed: 1}) },
		"genetic":   func() Explorer { return NewGenetic(stateSpace(), 1) },
		"random":    func() Explorer { return NewRandom(stateSpace(), 1) },
		"portfolio": func() Explorer { return NewPortfolio(stateSpace(), Config{Seed: 1}) },
		"novel(sharded-portfolio)": func() Explorer {
			sh, err := NewShardedStrategy(stateSpace(), 3, "portfolio", Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return NewNovel(sh, prior)
		},
		"novel(sharded-exhaustive)": func() Explorer {
			sh, err := NewShardedStrategy(stateSpace(), 2, "exhaustive", Config{})
			if err != nil {
				t.Fatal(err)
			}
			return NewNovel(sh, prior)
		},
	}
	for name, mk := range stacks {
		t.Run(name, func(t *testing.T) {
			ex := mk()
			check := func(c Candidate) {
				t.Helper()
				if c.key == "" || c.key != c.Point.Key() {
					t.Fatalf("generated candidate %v carries key %q", c.Point, c.key)
				}
			}
			fallbacks := KeyFallbacks()
			for i := 0; i < 40; i++ {
				c, ok := ex.Next()
				if !ok {
					t.Fatal("exhausted early")
				}
				check(c)
				ex.Report(c, fakeImpact(c), fakeImpact(c))
			}
			// A resumed explorer: imported pool entries, offspring and
			// arms hand out keyed candidates too.
			st := ex.ExportState()
			ex = mk()
			if err := ex.ImportState(st); err != nil {
				t.Fatal(err)
			}
			for _, c := range BatchNext(ex, 20) {
				check(c)
				ex.Report(c, 1, 1)
			}
			if n := KeyFallbacks() - fallbacks; n != 0 {
				t.Fatalf("%d fallback renders for generated candidates", n)
			}
			// Journal replay and tests build candidates by hand: no key
			// rides along, Key() renders it, and the explorer books it
			// under the same string a generated one would have had.
			replayed := Candidate{Point: faultspace.Point{Sub: 0, Fault: faultspace.Fault{5, 3, 9}}, MutatedAxis: -1}
			if replayed.Key() != "0:5,3,9" {
				t.Fatalf("hand-built candidate keys as %q", replayed.Key())
			}
			ex.Report(replayed, 1, 1)
			if name == "novel(sharded-exhaustive)" {
				return // enumeration keeps no History; its resume is the novelty filter's
			}
			for {
				c, ok := ex.Next()
				if !ok {
					break
				}
				if c.Key() == replayed.Key() {
					t.Fatal("a replayed point was generated again")
				}
				ex.Report(c, 0, 0)
			}
		})
	}
}
