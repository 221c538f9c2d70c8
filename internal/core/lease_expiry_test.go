package core_test

import (
	"reflect"
	"testing"
	"time"

	"afex/internal/core"
	"afex/internal/faultspace"
	"afex/internal/prog"
	"afex/internal/rpcnode"
)

// Lease expiry: a lease whose holder dies is handed out again. The
// engine trusts its executors and re-leases nothing itself; the
// coordinator (package rpcnode) declares a manager dead once it misses
// its beats and hands that manager's leases to the next one that asks.
// These tests run an engine behind a coordinator on the wall clock —
// each waits out one miss budget, so they run in parallel — and check
// the session the engine records: every lost candidate runs, once,
// within the budget, in a fixed order.

// expiryTarget is a two-test target whose 16-point space (expirySpace)
// mixes passing, failing and crashing scenarios.
func expiryTarget() *prog.Program {
	p := &prog.Program{
		Name: "expiry",
		Routines: map[string]*prog.Routine{
			"r": {Name: "r", Module: "m", Ops: []prog.Op{
				{Func: "read", Repeat: 2, OnError: prog.Propagate, Block: 1, RecoveryBlock: 2},
				{Func: "write", OnError: prog.UncheckedCrash, Block: 3, CrashID: "expiry-crash"},
			}},
		},
		TestSuite: []prog.Test{
			{Name: "t0", Script: []string{"r"}},
			{Name: "t1", Script: []string{"r"}},
		},
		NumBlocks: 3,
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func expirySpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 1),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 1, 4),
	))
}

// expiryTimeout bounds each wait on a session that needs one miss
// budget — a few beats — to recover a lost lease.
const expiryTimeout = 30 * time.Second

// expiryCoordinator builds an exhaustive coordinator over expirySpace
// with an Iterations budget (0 = the whole space).
func expiryCoordinator(t *testing.T, iterations int) *rpcnode.Coordinator {
	t.Helper()
	coord, err := rpcnode.NewCoordinatorConfig(core.Config{
		Space:      expirySpace(),
		Algorithm:  "exhaustive",
		Iterations: iterations,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// loseLeases has a manager lease up to max tasks and fall silent.
func loseLeases(t *testing.T, coord *rpcnode.Coordinator, max int) []rpcnode.TaskWire {
	t.Helper()
	var batch rpcnode.TaskBatch
	if err := coord.NextBatch(rpcnode.BatchRequest{Manager: "doomed", Max: max}, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Tasks) != max {
		t.Fatalf("doomed manager leased %+v, want %d tasks", batch, max)
	}
	return batch.Tasks
}

// survive serves coord and runs a manager against it until the session
// is done, returning how many tests the manager ran.
func survive(t *testing.T, coord *rpcnode.Coordinator) int {
	t.Helper()
	srv, err := rpcnode.Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := rpcnode.Dial(srv.Addr(), "survivor", expiryTarget())
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
	select {
	case r := <-ran:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.n
	case <-time.After(expiryTimeout):
		t.Fatal("the survivor never finished: the lost leases were not handed out again")
		return 0
	}
}

// onceEach fails if res holds two records of one point.
func onceEach(t *testing.T, res *core.ResultSet) {
	t.Helper()
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %s executed twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
}

// executed reports whether res holds a record of tw's point.
func executed(res *core.ResultSet, tw rpcnode.TaskWire) bool {
	for _, rec := range res.Records {
		if rec.Point.Sub == tw.Sub && reflect.DeepEqual([]int(rec.Point.Fault), tw.Fault) {
			return true
		}
	}
	return false
}

// TestLeaseExpiryReleasesLostCandidates simulates a manager that leases
// a batch and disconnects: the session still executes every point of
// the space, exactly once.
func TestLeaseExpiryReleasesLostCandidates(t *testing.T) {
	t.Parallel()
	coord := expiryCoordinator(t, 0)
	lost := loseLeases(t, coord, 5)
	want := int(expirySpace().Size())
	if n := survive(t, coord); n != want {
		t.Fatalf("survivor executed %d tests, want the whole %d-point space", n, want)
	}
	res := coord.Result()
	if res.Executed != want {
		t.Fatalf("executed %d tests, want the whole %d-point space", res.Executed, want)
	}
	onceEach(t, res)
	for _, tw := range lost {
		if !executed(res, tw) {
			t.Errorf("lost lease %v was never re-leased and executed", tw.Fault)
		}
	}
}

// TestLeaseExpiryRespectsIterationsBudget: a lost lease keeps the
// Iterations budget it committed, and its re-lease rides on it, so a
// session whose remaining budget is stuck on lost leases drains to
// exactly the budget — no stall, no overshoot.
func TestLeaseExpiryRespectsIterationsBudget(t *testing.T) {
	t.Parallel()
	const budget = 10
	coord := expiryCoordinator(t, budget)
	loseLeases(t, coord, 4)
	if n := survive(t, coord); n != budget {
		t.Fatalf("survivor executed %d tests, want the budget %d", n, budget)
	}
	res := coord.Result()
	if res.Executed != budget {
		t.Fatalf("executed %d, want exactly the budget %d", res.Executed, budget)
	}
	onceEach(t, res)
}

// TestLeaseExpiryDropsDuplicateFold: when a presumed-dead manager
// reports after its candidate was re-leased and folded, the late
// duplicate is dropped — each candidate folds exactly once.
func TestLeaseExpiryDropsDuplicateFold(t *testing.T) {
	t.Parallel()
	coord := expiryCoordinator(t, 0)
	lost := loseLeases(t, coord, 1)
	want := int(expirySpace().Size())
	if n := survive(t, coord); n != want {
		t.Fatalf("survivor executed %d tests, want %d", n, want)
	}
	// The original manager comes back from the dead and reports too.
	late := rpcnode.ResultBatch{Manager: "doomed", Results: []rpcnode.ResultWire{{Seq: lost[0].Seq, Failed: true, Injected: true}}}
	var ack rpcnode.BatchAck
	if err := coord.ReportBatch(late, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Folded != 0 {
		t.Fatalf("late duplicate folded %d results, want 0", ack.Folded)
	}
	snap := coord.Engine().Snapshot()
	if snap.Executed != want {
		t.Fatalf("duplicate fold counted: executed %d, want %d", snap.Executed, want)
	}
	if snap.Pending != 0 {
		t.Fatalf("pending %d after duplicate fold, want 0", snap.Pending)
	}
	onceEach(t, coord.Result())
}

// TestLeaseExpiryDeterministicOrder: lost leases re-lease in their
// original lease order, and two identically configured sessions agree
// on it.
func TestLeaseExpiryDeterministicOrder(t *testing.T) {
	t.Parallel()
	const n = 6
	coords := []*rpcnode.Coordinator{expiryCoordinator(t, n), expiryCoordinator(t, n)}
	var orders [][]rpcnode.TaskWire
	for _, coord := range coords {
		orders = append(orders, loseLeases(t, coord, n))
	}
	for c, coord := range coords {
		// One at a time, so each lease must pick the single oldest one;
		// the budget is all out, so the first answers are Retry until
		// the doomed manager has missed its beats.
		var got []rpcnode.TaskWire
		for deadline := time.Now().Add(expiryTimeout); len(got) < n; {
			var batch rpcnode.TaskBatch
			if err := coord.NextBatch(rpcnode.BatchRequest{Manager: "fresh", Max: 1}, &batch); err != nil {
				t.Fatal(err)
			}
			switch {
			case len(batch.Tasks) == 1:
				got = append(got, batch.Tasks[0])
			case batch.Retry && time.Now().Before(deadline):
				time.Sleep(time.Duration(batch.RetryAfterMS) * time.Millisecond)
			default:
				t.Fatalf("re-lease %d answered %+v after %d re-leases, want a lost task", c, batch, len(got))
			}
		}
		for i, tw := range orders[c] {
			if got[i].Sub != tw.Sub || !reflect.DeepEqual(got[i].Fault, tw.Fault) {
				t.Fatalf("re-lease order diverged at %d: got %v, want original lease order %v", i, got[i].Fault, tw.Fault)
			}
		}
	}
	for i := range orders[0] {
		if !reflect.DeepEqual(orders[0][i].Fault, orders[1][i].Fault) {
			t.Fatalf("two identical sessions re-leased in different orders at %d: %v vs %v", i, orders[0][i].Fault, orders[1][i].Fault)
		}
	}
}
