package rpcnode

import (
	"net/rpc"
	"reflect"
	"testing"
	"time"

	"afex/internal/core"
	"afex/internal/explore"
)

// leaseOne leases a single task at the raw protocol level.
func leaseOne(t *testing.T, client *rpc.Client, manager string) TaskWire {
	t.Helper()
	var batch TaskBatch
	if err := client.Call("Coordinator.NextBatch", BatchRequest{Manager: manager, Max: 1}, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Done || batch.Retry || len(batch.Tasks) != 1 {
		t.Fatalf("lease: got %+v, want one task", batch)
	}
	return batch.Tasks[0]
}

// executed reports whether res holds a record for the leased task's
// fault point.
func executed(res *core.ResultSet, tw TaskWire) bool {
	for _, rec := range res.Records {
		if rec.Point.Sub == tw.Sub && reflect.DeepEqual([]int(rec.Point.Fault), tw.Fault) {
			return true
		}
	}
	return false
}

// TestManagerCrashMidLease is the distributed lease-expiry satellite: a
// manager leases a batch of tasks and disconnects without reporting.
// With Config.LeaseTimeout set, a surviving manager polls through the
// expiry window (the Retry protocol), picks the lost tasks up, and the
// session terminates with the full ResultSet — no lost candidates.
func TestManagerCrashMidLease(t *testing.T) {
	space := rpcSpace()
	coord, err := NewCoordinatorConfig(core.Config{
		Space:        space,
		LeaseTimeout: 40 * time.Millisecond,
	}, explore.NewExhaustive(space), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The doomed manager: lease five tasks at the raw protocol level,
	// then vanish without reporting any of them.
	doomed, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	leased := make([]TaskWire, 0, 5)
	for i := 0; i < 5; i++ {
		leased = append(leased, leaseOne(t, doomed, "doomed"))
	}
	doomed.Close() // the crash: five leases leak

	// The survivor drives the session to completion, waiting out the
	// lease expiry where needed.
	mgr, err := Dial(srv.Addr(), "survivor", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	want := int(space.Size())
	if n != want {
		t.Fatalf("survivor executed %d tests, want the whole %d-point space", n, want)
	}

	res := coord.Result()
	if res.Executed != want || len(res.Records) != want {
		t.Fatalf("session executed %d tests (%d records), want %d", res.Executed, len(res.Records), want)
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %s executed twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
	// Every scenario the dead manager held hostage was re-leased and
	// executed by the survivor.
	for _, tw := range leased {
		if !executed(res, tw) {
			t.Errorf("fault %v leased by the dead manager was never executed", tw.Fault)
		}
	}
	if res.Failed == 0 || res.UniqueFailures == 0 {
		t.Errorf("full ResultSet expected failure clusters, got %+v", res)
	}
}

// TestManagerCrashMidBatch is TestHeartbeatLeaseExpiry with a whole
// batch at stake: a manager leases five tasks in one NextBatch call
// and goes silent mid-batch. The heartbeat reaper expires the batch's
// leases exactly once, a surviving batched manager re-executes them,
// and — the exactly-once half — a late partial ReportBatch from the
// "dead" manager resolves its seqs but folds nothing: every candidate
// already executed, so the engine drops each as a duplicate and no
// point is counted twice.
func TestManagerCrashMidBatch(t *testing.T) {
	space := rpcSpace()
	coord, err := NewCoordinatorConfig(core.Config{
		Space:        space,
		LeaseTimeout: 60 * time.Second, // wall-clock expiry: effectively never
	}, explore.NewExhaustive(space), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.SetHeartbeat(10*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The doomed manager leases five tasks in ONE round trip, then goes
	// silent — connection open, no heartbeats, nothing reported.
	doomed, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close()
	var hello HelloReply
	if err := doomed.Call("Coordinator.Hello", Hello{Manager: "doomed", Proto: protoBatched}, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Proto != protoBatched {
		t.Fatalf("negotiated proto %d, want %d", hello.Proto, protoBatched)
	}
	var batch TaskBatch
	if err := doomed.Call("Coordinator.NextBatch", BatchRequest{Manager: "doomed", Max: 5}, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Done || batch.Retry || len(batch.Tasks) != 5 {
		t.Fatalf("batched lease: got %+v, want 5 tasks", batch)
	}
	// Past the miss budget before anyone else shows up: the survivor's
	// first contact reaps the doomed manager, so the two never hold
	// leases at the same moment.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	mgr, err := Dial(srv.Addr(), "survivor", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.HeartbeatEvery = 10 * time.Millisecond
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("session took %v — the batch expired by wall-clock timeout, not heartbeats", elapsed)
	}
	want := int(space.Size())
	if n != want {
		t.Fatalf("survivor executed %d tests, want the whole %d-point space", n, want)
	}

	// The late partial report: the "dead" manager wakes up and reports
	// three of its five leased tasks. The seqs still resolve, but every
	// candidate was re-executed after expiry, so each fold is a
	// duplicate and the tallies must not move.
	before := coord.Snapshot()
	late := ResultBatch{Manager: "doomed"}
	for _, tw := range batch.Tasks[:3] {
		late.Results = append(late.Results, ResultWire{
			Seq: tw.Seq, TestID: 0, Failed: true, Injected: true,
		})
	}
	var ack BatchAck
	if err := doomed.Call("Coordinator.ReportBatch", late, &ack); err != nil {
		t.Fatalf("late partial ReportBatch must not error: %v", err)
	}
	after := coord.Snapshot()
	if after.Executed != before.Executed || after.Failed != before.Failed {
		t.Fatalf("late report moved the tallies: %+v -> %+v", before, after)
	}

	res := coord.Result()
	if res.Executed != want || len(res.Records) != want {
		t.Fatalf("session executed %d tests (%d records), want %d", res.Executed, len(res.Records), want)
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %s executed twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
	if res.Failed != 6 || res.Crashed != 2 || res.Injected != 6 {
		t.Errorf("tallies = failed=%d crashed=%d injected=%d, want 6/2/6", res.Failed, res.Crashed, res.Injected)
	}
}

// TestNextBatchDoneWithoutLeaseTimeout: the Retry protocol is strictly
// opt-in — without Config.LeaseTimeout an exhausted session reports
// Done even with leases outstanding, and heartbeat liveness, which has
// nothing to expire there, is refused.
func TestNextBatchDoneWithoutLeaseTimeout(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	if err := coord.SetHeartbeat(time.Second, 3); err == nil {
		t.Fatal("SetHeartbeat accepted a coordinator that tracks no leases")
	}
	for i := 0; i < int(space.Size()); i++ {
		var batch TaskBatch
		if err := coord.NextBatch(BatchRequest{Manager: "m", Max: 1}, &batch); err != nil {
			t.Fatal(err)
		}
		if batch.Done || batch.Retry || len(batch.Tasks) != 1 {
			t.Fatalf("lease %d: unexpected %+v", i, batch)
		}
	}
	var batch TaskBatch
	if err := coord.NextBatch(BatchRequest{Manager: "m", Max: 1}, &batch); err != nil {
		t.Fatal(err)
	}
	if !batch.Done || batch.Retry {
		t.Fatalf("exhausted session should be Done, got %+v", batch)
	}
}

// TestHeartbeatLeaseExpiry: heartbeat-driven liveness beats the
// wall-clock lease timeout. The session's LeaseTimeout is a deliberately
// unreachable 60s; the coordinator instead watches heartbeats (10ms
// interval, 3 misses). A manager that leases a batch and goes silent is
// declared dead within ~30ms and its leases are expired immediately, so
// the survivor finishes the whole space long before the wall-clock
// timeout — with the full ResultSet and no candidate lost or doubled.
func TestHeartbeatLeaseExpiry(t *testing.T) {
	space := rpcSpace()
	coord, err := NewCoordinatorConfig(core.Config{
		Space:        space,
		LeaseTimeout: 60 * time.Second, // wall-clock expiry: effectively never
	}, explore.NewExhaustive(space), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.SetHeartbeat(10*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The doomed manager leases five tasks (each NextBatch doubles as a
	// heartbeat) and then stops beating without reporting anything.
	doomed, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	leased := make([]TaskWire, 0, 5)
	for i := 0; i < 5; i++ {
		leased = append(leased, leaseOne(t, doomed, "doomed"))
	}
	doomed.Close()

	start := time.Now()
	mgr, err := Dial(srv.Addr(), "survivor", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.HeartbeatEvery = 10 * time.Millisecond
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	want := int(space.Size())
	if n != want {
		t.Fatalf("survivor executed %d tests, want the whole %d-point space", n, want)
	}
	// The point of heartbeats: recovery happened on the heartbeat
	// cutoff (~30ms), not the 60s wall-clock lease timeout.
	if elapsed > 30*time.Second {
		t.Fatalf("session took %v — leases were re-issued by wall-clock timeout, not heartbeats", elapsed)
	}

	res := coord.Result()
	if res.Executed != want || len(res.Records) != want {
		t.Fatalf("session executed %d tests (%d records), want %d", res.Executed, len(res.Records), want)
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %s executed twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
	for _, tw := range leased {
		if !executed(res, tw) {
			t.Errorf("fault %v leased by the silent manager was never executed", tw.Fault)
		}
	}
	if res.Failed == 0 || res.UniqueFailures == 0 {
		t.Errorf("full ResultSet expected failure clusters, got %+v", res)
	}
}
