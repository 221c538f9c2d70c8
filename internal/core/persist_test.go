package core

import (
	"fmt"
	"sync"
	"testing"

	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
)

// lastSnapshotStore keeps the most recent session snapshot and counts
// the deliveries.
type lastSnapshotStore struct {
	mu    sync.Mutex
	last  *SessionState
	snaps int64
}

func (s *lastSnapshotStore) JournalRecord(explore.Candidate, Record) {}

func (s *lastSnapshotStore) SnapshotSession(st *SessionState) {
	s.mu.Lock()
	s.last = st
	s.snaps++
	s.mu.Unlock()
}

// fewStacksExecutor injects every scenario at one of 64 call sites, so a
// session of any length sees at most 64 distinct stacks.
type fewStacksExecutor struct{}

func (fewStacksExecutor) Execute(c explore.Candidate) (Record, prog.Outcome) {
	h := 0
	for _, v := range c.Point.Fault {
		h = h*31 + v
	}
	return Record{Point: c.Point, Scenario: c.Point.Key()}, prog.Outcome{
		Injected:       true,
		Failed:         h%3 == 0,
		Crashed:        h%6 == 0,
		InjectionStack: []string{"main", fmt.Sprintf("dispatch_%d", h%8), fmt.Sprintf("site_%d", h/8%8)},
	}
}

// TestSnapshotCostsDistinctState is the size guard on session snapshots:
// what one holds, and what capturing and assembling one allocates, follow
// the distinct stacks — not the scenarios executed. The executed-key lists
// are views, so they add no allocation however long they grow.
func TestSnapshotCostsDistinctState(t *testing.T) {
	space := faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 399),
		faultspace.SetAxis("function", "read", "write", "open", "close"),
		faultspace.IntAxis("callNumber", 1, 100),
	))
	snapshotAllocs := func(scenarios int) float64 {
		st := &lastSnapshotStore{}
		eng, err := NewEngine(Config{
			Space:      space,
			Algorithm:  "fitness",
			Iterations: scenarios,
			Feedback:   true,
			Store:      st,
			Explore:    explore.Config{Seed: 9},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunWith(fewStacksExecutor{})
		if res := eng.Finish(); res.Executed != scenarios {
			t.Fatalf("executed %d scenarios, want %d", res.Executed, scenarios)
		}
		last := st.last
		if last == nil || last.Seq != scenarios {
			t.Fatalf("no final snapshot at seq %d: %+v", scenarios, last)
		}
		if tally := eng.Snapshot(); tally.Snapshots != st.snaps || tally.Snapshots < 2 || tally.SnapshotNS <= 0 {
			t.Fatalf("engine counts %d snapshots costing %d ns; the store received %d", tally.Snapshots, tally.SnapshotNS, st.snaps)
		}
		if n := len(last.AllStacks.Stacks); n == 0 || n > 64 {
			t.Fatalf("%d scenarios snapshot %d remembered stacks, want 1..64", scenarios, n)
		}
		if n := last.Aggregates.SeenKeys.Len(); n != scenarios {
			t.Fatalf("snapshot lists %d executed keys, want %d", n, scenarios)
		}
		if n := last.Explorer.Searches[0].History.Len(); n != scenarios {
			t.Fatalf("explorer state lists %d history keys, want %d", n, scenarios)
		}
		return testing.AllocsPerRun(10, func() {
			eng.mu.Lock()
			v := eng.sessionViewLocked()
			eng.mu.Unlock()
			if v.assemble().Seq != scenarios {
				t.Error("assembled a different session")
			}
		})
	}
	// Three sets of at most 64 stacks, a mutation pool of at most 20 and
	// sensitivity windows of fixed size: a few dozen allocations, at either
	// session size — where copying the session would take thousands.
	for _, scenarios := range []int{5000, 20000} {
		if allocs := snapshotAllocs(scenarios); allocs > 128 {
			t.Fatalf("a snapshot of %d scenarios allocates %.0f times; want it bounded by the distinct state", scenarios, allocs)
		}
	}
}

// TestStoreBackedFoldsIndexNoKeys: the executed keys a store-backed
// session keeps for its snapshots are a list nothing asks whether it
// holds a key, so folding enters no key into a table (the exhaustive
// search keeps a cursor, not a history); the list still names every fold
// in fold order.
func TestStoreBackedFoldsIndexNoKeys(t *testing.T) {
	st := &lastSnapshotStore{}
	eng, err := NewEngine(Config{
		Space:      faultspace.NewUnion(faultspace.New("s", faultspace.IntAxis("testID", 0, 99), faultspace.IntAxis("callNumber", 1, 30))),
		Algorithm:  "exhaustive",
		Iterations: 2000,
		Store:      st,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	built := explore.KeysBuilt()
	eng.RunWith(fewStacksExecutor{})
	res := eng.Finish()
	if built = explore.KeysBuilt() - built; built != 0 {
		t.Fatalf("%d folds entered %d keys into a table", res.Executed, built)
	}
	seen := st.last.Aggregates.SeenKeys
	if res.Executed != 2000 || seen.Len() != res.Executed {
		t.Fatalf("snapshot lists %d executed keys of %d folds, want 2000", seen.Len(), res.Executed)
	}
	for i := range res.Records {
		if seen.At(i) != res.Records[i].Point.Key() {
			t.Fatalf("executed key %d is %q, fold %d ran %q", i, seen.At(i), i, res.Records[i].Point.Key())
		}
	}
}
