package rpcnode

import (
	"strings"
	"testing"

	"afex/internal/core"
	"afex/internal/explore"
)

// TestDistributedMatchesLocalSession is the unification contract: a
// distributed exhaustive sweep must produce exactly the tallies,
// cluster structure and impact scores of the local engine over the same
// space, because both fold through the same core.Engine path.
func TestDistributedMatchesLocalSession(t *testing.T) {
	space := rpcSpace()
	target := rpcTarget()

	local, err := core.Run(core.Config{
		Target:    target,
		Space:     rpcSpace(),
		Algorithm: "exhaustive",
	})
	if err != nil {
		t.Fatal(err)
	}

	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := Dial(srv.Addr(), "solo", target)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	// One ordered manager: batched leasing with Concurrency 1 folds in
	// exact candidate order, like the sequential local run. (Concurrent
	// fan-out reorders folds the same way a local parallel pool does.)
	mgr.Concurrency = 1
	if _, err := mgr.RunUntilDone(); err != nil {
		t.Fatal(err)
	}

	dist := coord.Result()
	if dist.Executed != local.Executed || dist.Injected != local.Injected ||
		dist.Failed != local.Failed || dist.Crashed != local.Crashed || dist.Hung != local.Hung {
		t.Errorf("tallies diverge: distributed %+v, local executed=%d injected=%d failed=%d crashed=%d",
			coord.Snapshot(), local.Executed, local.Injected, local.Failed, local.Crashed)
	}
	if dist.UniqueFailures != local.UniqueFailures || dist.UniqueCrashes != local.UniqueCrashes {
		t.Errorf("clusters diverge: distributed %d/%d unique, local %d/%d",
			dist.UniqueFailures, dist.UniqueCrashes, local.UniqueFailures, local.UniqueCrashes)
	}
	if len(dist.CrashIDs) != len(local.CrashIDs) || dist.CrashIDs["rpc-crash"] != local.CrashIDs["rpc-crash"] {
		t.Errorf("crash identities diverge: %v vs %v", dist.CrashIDs, local.CrashIDs)
	}
	if len(dist.Records) != len(local.Records) {
		t.Fatalf("distributed kept %d records, local %d", len(dist.Records), len(local.Records))
	}
	// Same candidate order (single manager, exhaustive explorer), so
	// records must align scenario-by-scenario with identical impacts.
	for i := range dist.Records {
		d, l := dist.Records[i], local.Records[i]
		if d.Scenario != l.Scenario || d.Impact != l.Impact || d.Cluster != l.Cluster {
			t.Errorf("record %d diverges: distributed {%q %.1f c%d}, local {%q %.1f c%d}",
				i, d.Scenario, d.Impact, d.Cluster, l.Scenario, l.Impact, l.Cluster)
		}
	}
}

// TestDistributedReportRenders checks the distributed result set renders
// the full §6.3 synopsis, which only the local path used to produce.
func TestDistributedReportRenders(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 2, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := Dial(srv.Addr(), "w", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if _, err := mgr.RunUntilDone(); err != nil {
		t.Fatal(err)
	}
	rep := coord.Result().Report(2)
	if rep == "" {
		t.Fatal("empty report")
	}
	for _, want := range []string{"fault space   8 points", "tests         2 executed"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report lacks %q:\n%s", want, rep)
		}
	}
}
