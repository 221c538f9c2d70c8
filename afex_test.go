// Integration tests of the public API: the full workflows a downstream
// user runs, wired only through the exported surface.
package afex

import (
	"strings"
	"testing"
	"time"

	"afex/internal/rpcnode"
)

func TestPublicQuickstartWorkflow(t *testing.T) {
	target, err := Target("coreutils")
	if err != nil {
		t.Fatal(err)
	}
	space := SpaceFor(target, 19, 0, 2)
	if space.Size() != 1653 {
		t.Fatalf("Φ_coreutils = %d, want 1,653", space.Size())
	}
	res, err := Explore(Options{
		Target:     target,
		Space:      space,
		Algorithm:  FitnessGuided,
		Iterations: 120,
		Explore:    ExploreOptions{Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 120 {
		t.Errorf("executed %d", res.Executed)
	}
	if res.Failed == 0 {
		t.Error("no failures found in 120 iterations; target or search broken")
	}
	if !strings.Contains(res.Report(5), "AFEX session report") {
		t.Error("report header missing")
	}
}

func TestPublicTargetRegistry(t *testing.T) {
	names := TargetNames()
	if len(names) != 5 {
		t.Fatalf("targets = %v", names)
	}
	for _, n := range names {
		if _, err := Target(n); err != nil {
			t.Errorf("Target(%q): %v", n, err)
		}
	}
	if _, err := Target("sqlite"); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestPublicParseSpace(t *testing.T) {
	space, err := ParseSpace(`
        mem testID : [0,3] function : { malloc } callNumber : [1,4] ;
        io  testID : [0,3] function : { read, write } callNumber : [1,2] ;
    `)
	if err != nil {
		t.Fatal(err)
	}
	if len(space.Spaces) != 2 || space.Size() != 4*1*4+4*2*2 {
		t.Errorf("space = %d points in %d subspaces", space.Size(), len(space.Spaces))
	}
	if _, err := ParseSpace("function { oops ;"); err == nil {
		t.Error("bad description accepted")
	}
}

func TestPublicProfile(t *testing.T) {
	target, _ := Target("httpd")
	sp := Profile(target)
	if sp.Tests != 58 || sp.FailedBaseline != 0 {
		t.Errorf("httpd profile: %d tests, %d baseline failures", sp.Tests, sp.FailedBaseline)
	}
}

func TestPublicRelevanceModel(t *testing.T) {
	m := Paper75Model()
	if m.Weight("malloc") <= m.Weight("socket") {
		t.Error("paper model should weigh malloc far above networking")
	}
}

func TestPublicImpactDefaults(t *testing.T) {
	im := DefaultImpact()
	if im.PerNewBlock != 1 || im.Failed != 10 || im.Crash != 20 || im.Hang != 15 {
		t.Errorf("DefaultImpact = %+v", im)
	}
}

func TestPublicDistributedCluster(t *testing.T) {
	target, _ := Target("coreutils")
	space := SpaceFor(target, 19, 0, 2)
	coord, _, err := NewCoordinatorWithOptions(CoordinatorOptions{
		Space: space, Explore: ExploreOptions{Seed: 5}, Budget: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeCoordinator("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := DialManager(srv.Addr(), "itest", target)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 || coord.Snapshot().Executed != 40 {
		t.Errorf("cluster executed %d / %d, want 40", n, coord.Snapshot().Executed)
	}
}

func TestPublicShardedCoordinator(t *testing.T) {
	target, _ := Target("coreutils")
	space := SpaceFor(target, 19, 0, 2)
	coord, _, err := NewCoordinatorWithOptions(CoordinatorOptions{
		Space: space, Explore: ExploreOptions{Seed: 5}, Budget: 40, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeCoordinator("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := DialManager(srv.Addr(), "itest", target)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("sharded cluster executed %d, want 40", n)
	}
	res := coord.Result()
	if res.Algorithm != "sharded-fitness" || res.Executed != 40 {
		t.Errorf("result: algorithm %q executed %d", res.Algorithm, res.Executed)
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("distributed sharded session executed %v twice", rec.Point)
		}
		seen[rec.Point.Key()] = true
	}
}

// TestPublicHeartbeatWithoutLeaseTimeout: a coordinator built with no
// lease timeout or liveness option at all still recovers a dead
// manager's batch — the manager misses its beats, the coordinator
// declares it dead and hands the batch to the survivor, within a few
// beats of wall clock.
func TestPublicHeartbeatWithoutLeaseTimeout(t *testing.T) {
	target, _ := Target("coreutils")
	coord, _, err := NewCoordinatorWithOptions(CoordinatorOptions{
		Space: SpaceFor(target, 19, 0, 2), Explore: ExploreOptions{Seed: 5}, Budget: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeCoordinator("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// One manager leases a batch and dies with it (the wire types are
	// rpcnode's; no public call abandons a lease).
	var lost rpcnode.TaskBatch
	if err := coord.NextBatch(rpcnode.BatchRequest{Manager: "doomed", Max: 5}, &lost); err != nil || len(lost.Tasks) != 5 {
		t.Fatalf("doomed manager leased %+v (%v), want 5 tasks", lost, err)
	}
	start := time.Now()
	mgr, err := DialManager(srv.Addr(), "survivor", target)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	type result struct {
		n   int
		err error
	}
	ran := make(chan result, 1)
	go func() {
		n, err := mgr.RunUntilDone()
		ran <- result{n, err}
	}()
	var r result
	select {
	case r = <-ran:
	case <-time.After(30 * time.Second):
		t.Fatal("the survivor never finished: the dead manager's batch was never re-leased")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.n != 40 {
		t.Fatalf("survivor executed %d tests, want the whole budget of 40: the dead manager's batch was never re-leased", r.n)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("session took %v, far past the miss budget of a few beats", elapsed)
	}
	if res := coord.Result(); res.Executed != 40 {
		t.Fatalf("session executed %d, want 40", res.Executed)
	}
}

func TestPublicTopPerformanceFaults(t *testing.T) {
	target, _ := Target("httpd")
	space := SpaceFor(target, 19, 1, 10)
	top, res, err := TopPerformanceFaults(Options{
		Target:     target,
		Space:      space,
		Algorithm:  FitnessGuided,
		Iterations: 200,
		Explore:    ExploreOptions{Seed: 9},
	}, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 || res.Executed != 200 {
		t.Fatalf("top=%d executed=%d", len(top), res.Executed)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Impact > top[i-1].Impact {
			t.Fatal("top list not sorted")
		}
	}
	if top[0].Impact <= 0 {
		t.Error("worst performance fault has zero impact")
	}
}

func TestPublicPairAndDetailedSpaces(t *testing.T) {
	target, _ := Target("coreutils")
	pair := PairSpaceFor(target, 4, 2)
	if len(pair.Spaces[0].Axes) != 5 {
		t.Errorf("pair space axes = %d", len(pair.Spaces[0].Axes))
	}
	detailed := DetailedSpaceFor(target, 6, 1, 2)
	if len(detailed.Spaces) != 6 {
		t.Errorf("detailed space subspaces = %d, want one per function", len(detailed.Spaces))
	}
}

func TestPublicStopTarget(t *testing.T) {
	target, _ := Target("httpd")
	space := SpaceFor(target, 19, 1, 10)
	res, err := Explore(Options{
		Target:    target,
		Space:     space,
		Algorithm: FitnessGuided,
		Explore:   ExploreOptions{Seed: 11},
		Stop:      func(s Snapshot) bool { return s.Crashed >= 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed < 1 {
		t.Error("stop target not reached")
	}
	if int64(res.Executed) >= space.Size() {
		t.Error("session did not stop early")
	}
}
