package afex

import (
	"reflect"
	"sync"
	"testing"

	"afex/internal/prog"
)

// freshCopy returns p under a new Program value: the same routines and
// suite, but its own compiled form and an empty fault-free memo.
func freshCopy(p *System) *System {
	return &prog.Program{Name: p.Name, Routines: p.Routines, TestSuite: p.TestSuite, NumBlocks: p.NumBlocks}
}

// TestProgramSharedAcrossSessions runs a 4-worker local session and a
// coordinator with two in-process managers against one *Program at once,
// so its memo is filled concurrently and its Blocks maps are handed to
// every consumer in the tree (the engine's fold, the wire encoder), then
// checks that nobody wrote through a shared map: every memoised
// fault-free outcome still equals a fresh interpretation. Its value is
// under -race.
func TestProgramSharedAcrossSessions(t *testing.T) {
	mysqld, err := Target("mysqld")
	if err != nil {
		t.Fatal(err)
	}
	// The space is sized on the cached target so that profiling does not
	// fill the shared copy's memo before the sessions race to.
	space := SpaceFor(mysqld, 19, 1, 20)
	shared := freshCopy(mysqld)

	coord, _, err := NewCoordinatorWithOptions(CoordinatorOptions{Space: space, Explore: ExploreOptions{Seed: 3}, Budget: 1500})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeCoordinator("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := Explore(Options{Target: shared, Space: space, Feedback: true, Workers: 4, Iterations: 3000, Explore: ExploreOptions{Seed: 2}})
		if err != nil {
			t.Error(err)
		} else if res.Executed != 3000 {
			t.Errorf("local session executed %d, want 3000", res.Executed)
		}
	}()
	for _, id := range []string{"mgrA", "mgrB"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			mgr, err := DialManager(srv.Addr(), id, shared)
			if err != nil {
				t.Error(err)
				return
			}
			defer mgr.Close()
			if _, err := mgr.RunUntilDone(); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	if got := coord.Snapshot().Executed; got != 1500 {
		t.Errorf("distributed session executed %d, want 1500", got)
	}

	reference := freshCopy(mysqld)
	for testID := range shared.TestSuite {
		got, gotCalls := shared.FaultFree(testID)
		want, wantCalls := reference.FaultFree(testID)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Fatalf("test %d: the shared memo drifted from a fresh interpretation\n got %+v %v\nwant %+v %v", testID, got, gotCalls, want, wantCalls)
		}
	}
}
