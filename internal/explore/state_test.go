package explore

import (
	"encoding/json"
	"slices"
	"testing"

	"afex/internal/faultspace"
)

func stateSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 5),
		faultspace.SetAxis("function", "read", "write", "malloc", "close"),
		faultspace.IntAxis("callNumber", 0, 9),
	))
}

// fakeImpact gives the search something deterministic to learn from.
func fakeImpact(c Candidate) float64 {
	v := 1.0
	for _, x := range c.Point.Fault {
		v += float64(x % 7)
	}
	return v
}

// drive runs n Next/Report rounds, returning the executed keys in order.
func driveKeys(ex Explorer, n int) []string {
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c, ok := ex.Next()
		if !ok {
			break
		}
		keys = append(keys, c.Point.Key())
		ex.Report(c, fakeImpact(c), fakeImpact(c))
	}
	return keys
}

// TestFitnessStateRoundTrip: a fresh explorer that imports a mid-run
// snapshot must generate exactly the stream the exporter would have —
// including through a JSON round-trip, which is how the store persists
// it.
func TestFitnessStateRoundTrip(t *testing.T) {
	cfg := Config{Seed: 5}
	orig := NewFitnessGuided(stateSpace(), cfg)
	driveKeys(orig, 60)

	blob, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	clone := NewFitnessGuided(stateSpace(), cfg)
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

// rawSums is the sensitivity vector before normalisation: the running
// sums mutate weighs the axes by.
func rawSums(fg *FitnessGuided) []float64 {
	var out []float64
	for _, ws := range fg.sens {
		for _, w := range ws {
			out = append(out, w.sum)
		}
	}
	return out
}

// TestWindowSumSurvivesRoundTrip: a window's running sum is maintained
// as sum += v − evicted, so once the ring has wrapped over non-integral
// fitness (feedback on) it is not Σ vals to the last bit. A restored
// explorer must hold the live one's float, or the first Weighted draw
// that lands in the gap mutates another axis; a state from before the
// field existed still restores to the recomputed sum, as it always did.
func TestWindowSumSurvivesRoundTrip(t *testing.T) {
	cfg := Config{Seed: 5}
	orig := NewFitnessGuided(stateSpace(), cfg)
	for i := 0; i < 10*sensitivityWindow; i++ {
		c, ok := orig.Next()
		if !ok {
			t.Fatalf("space exhausted after %d", i)
		}
		impact := fakeImpact(c)
		orig.Report(c, impact, impact*(0.1+0.9/float64(i%13+1)))
	}
	restore := func(edit func(*WindowState)) []float64 {
		t.Helper()
		blob, err := json.Marshal(orig.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		var st State
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		for _, ws := range st.Searches[0].Sens {
			for k := range ws {
				edit(&ws[k])
			}
		}
		clone := NewFitnessGuided(stateSpace(), cfg)
		if err := clone.ImportState(&st); err != nil {
			t.Fatal(err)
		}
		return rawSums(clone)
	}
	live := rawSums(orig)
	var recomputed []float64
	for _, ws := range orig.sens {
		for _, w := range ws {
			sum := 0.0
			for _, v := range w.vals {
				sum += v
			}
			recomputed = append(recomputed, sum)
		}
	}
	if slices.Equal(live, recomputed) {
		t.Fatal("the running sums equal Σ vals bit for bit: the drive does not exercise the drift")
	}
	if got := restore(func(*WindowState) {}); !slices.Equal(got, live) {
		t.Fatalf("restored sums %v, live %v", got, live)
	}
	if got := restore(func(w *WindowState) { w.Sum = nil }); !slices.Equal(got, recomputed) {
		t.Fatalf("a state without sums restored to %v, want Σ vals %v", got, recomputed)
	}
}

// TestShardedStateRoundTrip: same property for the sharded explorer,
// whose state carries one search per shard plus the round-robin cursor.
func TestShardedStateRoundTrip(t *testing.T) {
	cfg := Config{Seed: 3}
	orig := newSharded(stateSpace(), 3, cfg)
	driveKeys(orig, 45)

	blob, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	clone := newSharded(stateSpace(), 3, cfg)
	if err := clone.ImportState(&st); err != nil {
		t.Fatal(err)
	}

	a, b := driveKeys(orig, 60), driveKeys(clone, 60)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sharded continuations diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestShardedStatefulStrategiesRoundTrip: the generalized sharded state
// nests one child state per shard — random and genetic inner strategies
// (RNG positions, histories, populations) must continue exactly after a
// JSON round-trip, like the fitness default does.
func TestShardedStatefulStrategiesRoundTrip(t *testing.T) {
	for _, alg := range []string{"random", "genetic", "exhaustive"} {
		t.Run(alg, func(t *testing.T) {
			cfg := Config{Seed: 9}
			mk := func() *Sharded {
				s, err := NewShardedStrategy(stateSpace(), 3, alg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			orig := mk()
			driveKeys(orig, 50)

			blob, err := json.Marshal(orig.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			var st State
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			clone := mk()
			if err := clone.ImportState(&st); err != nil {
				t.Fatal(err)
			}

			a, b := driveKeys(orig, 60), driveKeys(clone, 60)
			if len(a) != len(b) {
				t.Fatalf("continuation lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("sharded-%s continuations diverged at %d: %s vs %s", alg, i, a[i], b[i])
				}
			}
		})
	}
}

// TestShardedImportsLegacySearchesFormat: snapshots written before the
// strategy generalization carried one flat fitness SearchState per
// shard ("searches") instead of nested child states ("shards"); those
// state dirs must still resume, continuing the stream exactly.
func TestShardedImportsLegacySearchesFormat(t *testing.T) {
	cfg := Config{Seed: 3}
	orig := newSharded(stateSpace(), 3, cfg)
	driveKeys(orig, 45)

	st := orig.ExportState()
	// Rewrite the modern nested state into the legacy flat form.
	legacy := &State{Algorithm: st.Algorithm, RR: st.RR}
	for _, child := range st.Shards {
		legacy.Searches = append(legacy.Searches, child.Searches[0])
	}
	blob, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	clone := newSharded(stateSpace(), 3, cfg)
	if err := clone.ImportState(&decoded); err != nil {
		t.Fatal(err)
	}
	a, b := driveKeys(orig, 60), driveKeys(clone, 60)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("legacy-imported continuation diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
	// A legacy snapshot against a non-fitness sharded explorer is a
	// genuine mismatch, not a migration case.
	sr, err := NewShardedStrategy(stateSpace(), 3, "random", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.ImportState(&State{Algorithm: "sharded-random", Searches: legacy.Searches}); err == nil {
		t.Fatal("legacy fitness searches imported into sharded-random")
	}
}

// TestImportStateRejectsMismatch: importing into an explorer over a
// different space shape (or the wrong algorithm) must fail loudly.
func TestImportStateRejectsMismatch(t *testing.T) {
	st := NewFitnessGuided(stateSpace(), Config{Seed: 1}).ExportState()
	other := NewFitnessGuided(faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("only", 0, 3),
	)), Config{Seed: 1})
	if err := other.ImportState(st); err == nil {
		t.Fatal("import across space shapes succeeded")
	}
	sh := newSharded(stateSpace(), 2, Config{Seed: 1})
	if err := sh.ImportState(st); err == nil {
		t.Fatal("sharded import of fitness state succeeded")
	}
	if err := sh.ImportState(newSharded(stateSpace(), 4, Config{Seed: 1}).ExportState()); err == nil {
		t.Fatal("sharded import across shard counts succeeded")
	}
}

// TestNovelFilter: seen keys are never handed out, everything else is,
// and the filter terminates by exhausting the inner explorer.
func TestNovelFilter(t *testing.T) {
	space := stateSpace()
	seen := make(map[string]bool)
	// Mark every point with testID index 0 as seen (one sixth of the
	// space).
	space.Enumerate(func(p faultspace.Point) bool {
		if p.Fault[0] == 0 {
			seen[p.Key()] = true
		}
		return true
	})
	n := NewNovel(NewFitnessGuided(space, Config{Seed: 8}), keySetOf(seen))
	got := make(map[string]bool)
	for {
		c, ok := n.Next()
		if !ok {
			break
		}
		key := c.Point.Key()
		if seen[key] {
			t.Fatalf("novelty filter emitted seen key %s", key)
		}
		if got[key] {
			t.Fatalf("duplicate candidate %s", key)
		}
		got[key] = true
		n.Report(c, 1, 1)
	}
	if want := int(space.Size()) - len(seen); len(got) != want {
		t.Fatalf("novelty filter emitted %d candidates, want %d", len(got), want)
	}
}

// TestShardedReportWithoutLease: feedback for a candidate the explorer
// never leased (journal replay on resume) must still land in the owning
// shard's history so the point is not regenerated.
func TestShardedReportWithoutLease(t *testing.T) {
	space := stateSpace()
	s := newSharded(space, 3, Config{Seed: 2})
	p := faultspace.Point{Sub: 0, Fault: faultspace.Fault{4, 2, 7}}
	before := s.HistorySize()
	s.Report(Candidate{Point: p, MutatedAxis: -1}, 3, 3)
	if s.HistorySize() != before+1 {
		t.Fatalf("unleased report did not enter history: %d -> %d", before, s.HistorySize())
	}
	for i := 0; i < int(space.Size()); i++ {
		c, ok := s.Next()
		if !ok {
			break
		}
		if c.Point.Key() == p.Key() {
			t.Fatalf("point %s regenerated after external report", p.Key())
		}
		s.Report(c, 1, 1)
	}
}

// keySetOf builds the frozen set a store would hand the novelty filter.
func keySetOf(seen map[string]bool) *KeySet {
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	return NewKeySet(keys)
}

// newStrategy is the named strategy over stateSpace at seed 9, bare
// (shards 1) or in its sharded form.
func newStrategy(name string, shards int) Explorer {
	var ex Explorer
	var err error
	if shards == 1 {
		ex, err = New(name, stateSpace(), Config{Seed: 9})
	} else {
		ex, err = NewShardedStrategy(stateSpace(), shards, name, Config{Seed: 9})
	}
	if err != nil {
		panic(err)
	}
	return ex
}

// maxDraws is the deepest random-stream position anywhere in st.
func maxDraws(st *State) uint64 {
	var n uint64
	for i := range st.Searches {
		n = max(n, st.Searches[i].Rng.Draws)
	}
	for _, sh := range st.Shards {
		if sh != nil {
			n = max(n, maxDraws(sh))
		}
	}
	for i := range st.Arms {
		if st.Arms[i].State != nil {
			n = max(n, maxDraws(st.Arms[i].State))
		}
	}
	return n
}

// FuzzImportState: ImportState is the explorer's decoder for snapshot
// bytes. Any JSON State, imported into every strategy and its 3-shard
// form, either is refused or leaves an explorer that Next, BatchNext,
// ReportBatch and ExportState drive without a panic. Inputs whose random
// streams sit more than 1<<16 draws in are not run: xrand.Restore
// replays the draws by design, so their cost is the input's.
func FuzzImportState(f *testing.F) {
	for _, name := range Strategies() {
		for _, shards := range []int{1, 3} {
			ex := newStrategy(name, shards)
			driveKeys(ex, 40)
			st := ex.ExportState()
			blob, err := json.Marshal(st)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
			if shards > 1 {
				// A negative round-robin cursor is refused, not indexed.
				st.RR = -1
				blob, _ = json.Marshal(st)
				f.Add(blob)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range Strategies() {
			for _, shards := range []int{1, 3} {
				// Decoded afresh for each explorer: an import may keep
				// (and a legacy sharded one rewrites) what it is handed.
				var st State
				if json.Unmarshal(data, &st) != nil || maxDraws(&st) > 1<<16 {
					return
				}
				ex := newStrategy(name, shards)
				if ex.ImportState(&st) != nil {
					continue
				}
				var leased []Candidate
				for i := 0; i < 3; i++ {
					if c, ok := ex.Next(); ok {
						leased = append(leased, c)
					}
				}
				leased = append(leased, BatchNext(ex, 5)...)
				ReportBatch(ex, batchFeedback(leased, true))
				if _, err := json.Marshal(ex.ExportState()); err != nil {
					t.Fatalf("%s/%d shards: export after import: %v", name, shards, err)
				}
			}
		}
	})
}
