package explore

import (
	"testing"

	"afex/internal/faultspace"
)

// newSharded is the sharded fitness-guided explorer most tests compose.
func newSharded(space *faultspace.Union, n int, cfg Config) *Sharded {
	s, err := NewShardedStrategy(space, n, "fitness", cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func shardedSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 3),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 0, 11),
	))
}

// TestShardedCoversSpaceOnce exhausts a sharded explorer and checks the
// union of the shards' work is the whole parent space with no point
// visited twice and every candidate valid in the parent.
func TestShardedCoversSpaceOnce(t *testing.T) {
	space := shardedSpace()
	s := newSharded(space, 4, Config{Seed: 3})
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d", s.Shards())
	}
	seen := map[string]bool{}
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		if !space.Spaces[c.Point.Sub].Contains(c.Point.Fault) {
			t.Fatalf("candidate %s not valid in the parent space", c.Point.Key())
		}
		key := c.Point.Key()
		if seen[key] {
			t.Fatalf("point %s leased twice", key)
		}
		seen[key] = true
		s.Report(c, 1, 1)
	}
	if int64(len(seen)) != space.Size() {
		t.Fatalf("sharded exploration covered %d points, want %d", len(seen), space.Size())
	}
	if s.Executed() != len(seen) || s.HistorySize() != len(seen) {
		t.Errorf("Executed=%d HistorySize=%d, want %d", s.Executed(), s.HistorySize(), len(seen))
	}
}

// TestShardedBatchStripesAcrossShards checks BatchNext spreads a batch
// over the shards: the first lease of a 4-shard session must span all 4
// disjoint callNumber regions.
func TestShardedBatchStripesAcrossShards(t *testing.T) {
	space := shardedSpace() // widest axis: callNumber (12 values → 3 per shard)
	s := newSharded(space, 4, Config{Seed: 9})
	batch := s.BatchNext(8)
	if len(batch) != 8 {
		t.Fatalf("leased %d candidates, want 8", len(batch))
	}
	regions := map[int]bool{}
	for _, c := range batch {
		regions[c.Point.Fault[2]/3] = true
	}
	if len(regions) != 4 {
		t.Errorf("first batch touched %d of 4 shard regions: %v", len(regions), regions)
	}
	ReportBatch(s, nil) // no-op
	fb := make([]Feedback, len(batch))
	for i, c := range batch {
		fb[i] = Feedback{C: c, Impact: 1, Fitness: 1}
	}
	s.ReportBatch(fb)
	if s.Executed() != len(batch) {
		t.Errorf("ReportBatch folded %d, want %d", s.Executed(), len(batch))
	}
}

// TestShardedDeterministic: identical seeds yield identical candidate
// streams under identical feedback.
func TestShardedDeterministic(t *testing.T) {
	mk := func() *Sharded { return newSharded(shardedSpace(), 3, Config{Seed: 5}) }
	a, b := mk(), mk()
	for i := 0; i < 60; i++ {
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
		imp := float64(i % 7)
		a.Report(ca, imp, imp)
		b.Report(cb, imp, imp)
	}
}

// TestShardedFeedbackRoutesToOwningShard: reporting a candidate must
// land in the shard that generated it — the shard's own history grows,
// the others' do not.
func TestShardedFeedbackRoutesToOwningShard(t *testing.T) {
	s := newSharded(shardedSpace(), 4, Config{Seed: 1})
	c, ok := s.Next()
	if !ok {
		t.Fatal("no candidate")
	}
	before := make([]int, len(s.shards))
	for i, st := range s.shards {
		before[i] = st.ex.Executed()
	}
	s.Report(c, 10, 10)
	grew := -1
	for i, st := range s.shards {
		if st.ex.Executed() != before[i] {
			if grew != -1 {
				t.Fatal("feedback folded into more than one shard")
			}
			grew = i
		}
	}
	if grew != 0 {
		t.Errorf("feedback folded into shard %d, want the round-robin first shard 0", grew)
	}
	// Reporting an unknown candidate is ignored, not a crash.
	s.Report(Candidate{Point: faultspace.Point{Sub: 0, Fault: faultspace.Fault{0, 0, 0}}}, 1, 1)
}

// TestShardedStrategiesCoverSpaceOnce: sharding composes with every
// registered strategy — each wrapped algorithm covers the whole space
// exactly once when exhausted, and the explorer is named after it.
func TestShardedStrategiesCoverSpaceOnce(t *testing.T) {
	for _, alg := range []string{"fitness", "random", "genetic", "exhaustive", "portfolio"} {
		t.Run(alg, func(t *testing.T) {
			space := shardedSpace()
			s, err := NewShardedStrategy(space, 4, alg, Config{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if want := "sharded-" + alg; s.Name() != want {
				t.Fatalf("Name = %q, want %q", s.Name(), want)
			}
			seen := map[string]bool{}
			for {
				c, ok := s.Next()
				if !ok {
					break
				}
				key := c.Point.Key()
				if seen[key] {
					t.Fatalf("point %s leased twice", key)
				}
				if !space.Spaces[c.Point.Sub].Contains(c.Point.Fault) {
					t.Fatalf("candidate %s not valid in the parent space", key)
				}
				seen[key] = true
				s.Report(c, 1, 1)
			}
			if int64(len(seen)) != space.Size() {
				t.Fatalf("sharded-%s covered %d points, want %d", alg, len(seen), space.Size())
			}
			if s.Executed() != len(seen) {
				t.Errorf("Executed = %d, want %d", s.Executed(), len(seen))
			}
		})
	}
	if _, err := NewShardedStrategy(shardedSpace(), 4, "annealing", Config{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestShardedStrategyDeterministic: sequential sharded runs of every
// strategy are bit-for-bit deterministic — identical seeds and feedback
// yield identical candidate streams. (CI runs this as the
// sharded-random determinism gate of the bench-smoke job.)
func TestShardedStrategyDeterministic(t *testing.T) {
	for _, alg := range []string{"random", "genetic", "exhaustive", "portfolio"} {
		t.Run(alg, func(t *testing.T) {
			mk := func() *Sharded {
				s, err := NewShardedStrategy(shardedSpace(), 3, alg, Config{Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			a, b := mk(), mk()
			for i := 0; i < 60; i++ {
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
				imp := float64(i % 7)
				a.Report(ca, imp, imp)
				b.Report(cb, imp, imp)
			}
		})
	}
}

// TestShardedMoreShardsThanWidth: surplus shards come back empty and are
// dropped; the rest still partition the space.
func TestShardedMoreShardsThanWidth(t *testing.T) {
	space := faultspace.NewUnion(faultspace.New("narrow",
		faultspace.IntAxis("x", 0, 2), // widest axis has 3 values
		faultspace.IntAxis("y", 0, 1),
	))
	s := newSharded(space, 8, Config{Seed: 2})
	if s.Shards() != 3 {
		t.Fatalf("Shards = %d, want 3 non-empty", s.Shards())
	}
	n := 0
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		n++
		s.Report(c, 0, 0)
	}
	if int64(n) != space.Size() {
		t.Errorf("covered %d points, want %d", n, space.Size())
	}
}
