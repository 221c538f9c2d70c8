package explore

import (
	"encoding/json"
	"testing"

	"afex/internal/faultspace"
)

func portfolioSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 5),
		faultspace.SetAxis("function", "read", "write", "malloc"),
		faultspace.IntAxis("callNumber", 0, 9),
	))
}

// TestPortfolioCoversSpaceOnce exhausts a portfolio explorer: the union
// of the arms' work is the whole space, no point executes twice, and the
// bandit accounts for every pull.
func TestPortfolioCoversSpaceOnce(t *testing.T) {
	space := portfolioSpace()
	p := NewPortfolio(space, Config{Seed: 4})
	seen := map[string]bool{}
	for {
		c, ok := p.Next()
		if !ok {
			break
		}
		key := c.Point.Key()
		if seen[key] {
			t.Fatalf("point %s leased twice", key)
		}
		if !space.Spaces[c.Point.Sub].Contains(c.Point.Fault) {
			t.Fatalf("candidate %s not valid in the space", key)
		}
		seen[key] = true
		p.Report(c, 1, 1)
	}
	if int64(len(seen)) != space.Size() {
		t.Fatalf("portfolio covered %d points, want %d", len(seen), space.Size())
	}
	if p.Executed() != len(seen) {
		t.Errorf("Executed = %d, want %d", p.Executed(), len(seen))
	}
	total := 0
	for _, a := range p.ArmStats() {
		if a.Pulls < 0 {
			t.Errorf("arm %s has negative pulls", a.Name)
		}
		total += a.Pulls
	}
	if total != len(seen) {
		t.Errorf("arm pulls sum to %d, want %d", total, len(seen))
	}
}

// TestPortfolioDeterministic: identical seeds and feedback yield
// identical candidate streams — the portfolio is a strategy like any
// other, sequential sessions are bit-for-bit reproducible.
func TestPortfolioDeterministic(t *testing.T) {
	mk := func() *Portfolio { return NewPortfolio(portfolioSpace(), Config{Seed: 6}) }
	a, b := mk(), mk()
	for i := 0; i < 120; i++ {
		ca, oka := a.Next()
		cb, okb := b.Next()
		if oka != okb {
			t.Fatalf("streams diverge in length at %d", i)
		}
		if !oka {
			break
		}
		if ca.Point.Key() != cb.Point.Key() {
			t.Fatalf("streams diverge at %d: %s vs %s", i, ca.Point.Key(), cb.Point.Key())
		}
		imp := float64(i % 5)
		a.Report(ca, imp, imp)
		b.Report(cb, imp, imp)
	}
}

// TestPortfolioAdaptsToRewardingArm: when only the fitness arm's
// mutation offspring earn reward (candidates with MutatedAxis >= 0 are
// produced by no other arm), the bandit must shift the majority of its
// budget to the fitness arm.
func TestPortfolioAdaptsToRewardingArm(t *testing.T) {
	p := NewPortfolio(portfolioSpace(), Config{Seed: 2})
	for i := 0; i < 150; i++ {
		c, ok := p.Next()
		if !ok {
			break
		}
		fit := 0.01
		if c.MutatedAxis >= 0 {
			fit = 10
		}
		p.Report(c, fit, fit)
	}
	stats := p.ArmStats()
	byName := map[string]ArmStat{}
	for _, a := range stats {
		byName[a.Name] = a
	}
	fitness := byName["fitness"]
	for _, name := range []string{"random", "genetic"} {
		if fitness.Pulls <= byName[name].Pulls {
			t.Errorf("fitness arm pulled %d ≤ %s arm %d; bandit did not adapt (stats %+v)",
				fitness.Pulls, name, byName[name].Pulls, stats)
		}
	}
}

// TestPortfolioBatchSpreadsArms: a batch lease must not hand the whole
// budget to one arm while the bandit is still uncertain — in-flight
// leases widen the arm's confidence bound.
func TestPortfolioBatchSpreadsArms(t *testing.T) {
	p := NewPortfolio(portfolioSpace(), Config{Seed: 9})
	batch := p.BatchNext(12)
	if len(batch) != 12 {
		t.Fatalf("leased %d, want 12", len(batch))
	}
	pendingArms := 0
	for _, a := range p.arms {
		if a.pending > 0 {
			pendingArms++
		}
	}
	if pendingArms < 2 {
		t.Errorf("first batch of 12 touched %d arms, want ≥ 2", pendingArms)
	}
	fb := make([]Feedback, len(batch))
	for i, c := range batch {
		fb[i] = Feedback{C: c, Impact: 1, Fitness: 1}
	}
	ReportBatch(p, fb)
	if p.Executed() != len(batch) {
		t.Errorf("ReportBatch folded %d, want %d", p.Executed(), len(batch))
	}
}

// TestPortfolioStateRoundTrip: a fresh portfolio that imports a mid-run
// snapshot (through JSON, as the store persists it) must continue with
// exactly the stream the exporter would have produced — bandit counters,
// arm RNG positions and the shared seen set all round-trip.
func TestPortfolioStateRoundTrip(t *testing.T) {
	cfg := Config{Seed: 5}
	orig := NewPortfolio(portfolioSpace(), cfg)
	driveKeys(orig, 70)

	blob, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	clone := NewPortfolio(portfolioSpace(), cfg)
	if err := clone.ImportState(&st); err != nil {
		t.Fatal(err)
	}

	a, b := driveKeys(orig, 80), driveKeys(clone, 80)
	if len(a) != len(b) {
		t.Fatalf("continuation lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("continuations diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestPortfolioImportRejectsMismatch: wrong algorithm or arm roster must
// fail loudly.
func TestPortfolioImportRejectsMismatch(t *testing.T) {
	p := NewPortfolio(portfolioSpace(), Config{Seed: 1})
	if err := p.ImportState(NewFitnessGuided(portfolioSpace(), Config{Seed: 1}).ExportState()); err == nil {
		t.Fatal("portfolio imported fitness state")
	}
	st := NewPortfolio(portfolioSpace(), Config{Seed: 1}).ExportState()
	st.Arms = st.Arms[:2]
	if err := p.ImportState(st); err == nil {
		t.Fatal("portfolio imported state with a truncated arm roster")
	}
	st = NewPortfolio(portfolioSpace(), Config{Seed: 1}).ExportState()
	st.Arms[0].Name = "annealing"
	if err := p.ImportState(st); err == nil {
		t.Fatal("portfolio imported state with a renamed arm")
	}
}

// TestPortfolioUnleasedReportMarksSeen: feedback for a candidate the
// portfolio never leased (journal tail replay on resume) enters the
// shared seen set — the point is never handed out afterwards and no arm
// is credited with a pull.
func TestPortfolioUnleasedReportMarksSeen(t *testing.T) {
	space := portfolioSpace()
	p := NewPortfolio(space, Config{Seed: 3})
	ext := faultspace.Point{Sub: 0, Fault: faultspace.Fault{2, 1, 4}}
	p.Report(Candidate{Point: ext, MutatedAxis: -1}, 7, 7)
	if p.Executed() != 0 {
		t.Fatalf("unleased report credited a pull: Executed = %d", p.Executed())
	}
	for {
		c, ok := p.Next()
		if !ok {
			break
		}
		if c.Point.Key() == ext.Key() {
			t.Fatalf("point %s regenerated after external report", ext.Key())
		}
		p.Report(c, 1, 1)
	}
}

// TestNovelFilterDoesNotDistortBandit: the outermost novelty filter
// (continuation runs without --resume) must veto prior-run points via
// Skip — no pull credit, no reward, no discount step — not via a
// zero-fitness Report that would punish whichever arm happened to
// regenerate them. Guards the strategy → sharded → novel composition
// end to end.
func TestNovelFilterDoesNotDistortBandit(t *testing.T) {
	space := portfolioSpace()
	// Mark a third of the space as seen by a prior run.
	seen := make(map[string]bool)
	space.Enumerate(func(pt faultspace.Point) bool {
		if pt.Fault[0]%3 == 0 {
			seen[pt.Key()] = true
		}
		return true
	})
	for _, mk := range []func() Explorer{
		func() Explorer { return NewPortfolio(space, Config{Seed: 4}) },
		func() Explorer {
			s, err := NewShardedStrategy(space, 3, "portfolio", Config{Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		inner := mk()
		n := NewNovel(inner, keySetOf(seen))
		executed := 0
		for executed < 60 {
			c, ok := n.Next()
			if !ok {
				break
			}
			if seen[c.Point.Key()] {
				t.Fatalf("novelty filter emitted seen key %s", c.Point.Key())
			}
			n.Report(c, 1, 1)
			executed++
		}
		total := 0
		for _, a := range n.ArmStats() {
			total += a.Pulls
		}
		if total != executed {
			t.Errorf("%T: arm pulls sum to %d, want exactly the %d executed tests (novelty skips must not count)",
				inner, total, executed)
		}
	}
}

// TestShardedPortfolioComposes: the sharded meta-explorer wraps the
// portfolio like any other strategy — per-shard bandits cover the space
// once, and ArmStats aggregates over shards by arm name.
func TestShardedPortfolioComposes(t *testing.T) {
	space := portfolioSpace()
	s, err := NewShardedStrategy(space, 3, "portfolio", Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "sharded-portfolio" {
		t.Fatalf("Name = %q", s.Name())
	}
	seen := map[string]bool{}
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		if seen[c.Point.Key()] {
			t.Fatalf("point %s leased twice", c.Point.Key())
		}
		seen[c.Point.Key()] = true
		s.Report(c, 1, 1)
	}
	if int64(len(seen)) != space.Size() {
		t.Fatalf("sharded portfolio covered %d points, want %d", len(seen), space.Size())
	}
	stats := s.ArmStats()
	if len(stats) != len(portfolioArms) {
		t.Fatalf("aggregated ArmStats has %d arms, want %d: %+v", len(stats), len(portfolioArms), stats)
	}
	total := 0
	for _, a := range stats {
		total += a.Pulls
	}
	if total != len(seen) {
		t.Errorf("aggregated pulls %d, want %d", total, len(seen))
	}
}
