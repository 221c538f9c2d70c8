package rpcnode

import (
	"net/rpc"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"afex/internal/core"
	"afex/internal/explore"
)

// stepClock is a coordinator's clock in these tests: it stands still
// until a test advances it, so a manager is declared dead at a chosen
// step, not after a sleep.
type stepClock struct{ ns atomic.Int64 }

func (c *stepClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *stepClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// deathAfter is the silence that declares a manager dead.
const deathAfter = missedBeats*DefaultHeartbeat + time.Nanosecond

// onStepClock builds a coordinator over cfg whose beat table reads a
// stepClock, and serves it.
func onStepClock(t *testing.T, cfg core.Config, ex explore.Explorer) (*Coordinator, *stepClock, *Server) {
	t.Helper()
	coord, err := NewCoordinatorConfig(cfg, ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := &stepClock{}
	coord.now = clk.Now
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return coord, clk, srv
}

// waitFolded waits until the coordinator has folded n results.
func waitFolded(t *testing.T, coord *Coordinator, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); coord.Snapshot().Executed < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("folded %d results, waited for %d", coord.Snapshot().Executed, n)
		}
	}
}

// survive runs a manager to completion in the background; its result
// arrives on the returned channel.
func survive(t *testing.T, addr string) <-chan int {
	t.Helper()
	mgr, err := Dial(addr, "survivor", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	ran := make(chan int, 1)
	go func() {
		n, err := mgr.RunUntilDone()
		if err != nil {
			t.Error(err)
		}
		ran <- n
	}()
	return ran
}

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

// TestDefaultCoordinatorSealsAfterManagerDeath: a coordinator built
// with nothing but a space and a budget hands a dead manager's leases
// to a survivor. A raw client leases 3 of 6 tests and disconnects; the
// survivor runs the other 3, is told to retry while the 3 are out, and
// runs them once the client has missed its beats; the engine seals.
func TestDefaultCoordinatorSealsAfterManagerDeath(t *testing.T) {
	space := rpcSpace()
	coord, clk, srv := onStepClock(t, core.Config{Space: space, Iterations: 6}, nil)
	doomed, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var lost TaskBatch
	if err := doomed.Call("Coordinator.NextBatch", BatchRequest{Manager: "doomed", Max: 3}, &lost); err != nil || len(lost.Tasks) != 3 {
		t.Fatalf("doomed manager leased %+v (%v), want 3 tasks", lost, err)
	}
	doomed.Close()
	ran := survive(t, srv.Addr())
	waitFolded(t, coord, 3)
	clk.Advance(deathAfter)
	select {
	case n := <-ran:
		if n != 6 {
			t.Fatalf("survivor ran %d tests, want all 6", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the survivor never finished: the dead manager's leases were not handed out")
	}
	select {
	case <-coord.Engine().Done():
	default:
		t.Fatalf("Engine.Done open with %d pending", coord.Engine().Snapshot().Pending)
	}
	res := coord.Result()
	if res.Executed != 6 {
		t.Fatalf("session executed %d, want 6", res.Executed)
	}
	onceEach(t, res)
	for _, tw := range lost.Tasks {
		if !executed(res, tw) {
			t.Errorf("fault %v leased by the dead manager was never executed", tw.Fault)
		}
	}
}

// TestManagerCrashMidLease: a manager leases five tasks one at a time
// and disconnects without reporting. A surviving manager polls (the
// Retry protocol) until the coordinator declares the other dead, picks
// the lost tasks up, and the session terminates with the full
// ResultSet — no lost candidates.
func TestManagerCrashMidLease(t *testing.T) {
	space := rpcSpace()
	coord, clk, srv := onStepClock(t, core.Config{Space: space}, explore.NewExhaustive(space))
	doomed, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	leased := make([]TaskWire, 0, 5)
	for i := 0; i < 5; i++ {
		leased = append(leased, leaseOne(t, doomed, "doomed"))
	}
	doomed.Close() // the crash: five leases out

	want := int(space.Size())
	ran := survive(t, srv.Addr())
	waitFolded(t, coord, want-5)
	clk.Advance(deathAfter)
	if n := <-ran; n != want {
		t.Fatalf("survivor executed %d tests, want the whole %d-point space", n, want)
	}
	res := coord.Result()
	if res.Executed != want || len(res.Records) != want {
		t.Fatalf("session executed %d tests (%d records), want %d", res.Executed, len(res.Records), want)
	}
	onceEach(t, res)
	for _, tw := range leased {
		if !executed(res, tw) {
			t.Errorf("fault %v leased by the dead manager was never executed", tw.Fault)
		}
	}
	if res.Failed == 0 || res.UniqueFailures == 0 {
		t.Errorf("full ResultSet expected failure clusters, got %+v", res)
	}
}

// TestManagerCrashMidBatch: a manager leases five tasks in one
// NextBatch call and goes silent with its connection open. The
// survivor's first contact, past the miss budget, declares it dead; the
// survivor runs its batch; and a late partial ReportBatch from the
// "dead" manager names seqs the coordinator has retired, so it folds
// nothing and no point is counted twice.
func TestManagerCrashMidBatch(t *testing.T) {
	space := rpcSpace()
	coord, clk, srv := onStepClock(t, core.Config{Space: space}, explore.NewExhaustive(space))
	doomed, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close()
	var hello HelloReply
	if err := doomed.Call("Coordinator.Hello", Hello{Manager: "doomed", Proto: protoBatched}, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Proto != protoBatched || hello.Heartbeat != DefaultHeartbeat {
		t.Fatalf("hello %+v, want proto %d and a %v beat", hello, protoBatched, DefaultHeartbeat)
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
	clk.Advance(deathAfter)
	want := int(space.Size())
	if n := <-survive(t, srv.Addr()); n != want {
		t.Fatalf("survivor executed %d tests, want the whole %d-point space", n, want)
	}

	before := coord.Snapshot()
	late := ResultBatch{Manager: "doomed"}
	for _, tw := range batch.Tasks[:3] {
		late.Results = append(late.Results, ResultWire{Seq: tw.Seq, Failed: true, Injected: true})
	}
	var ack BatchAck
	if err := doomed.Call("Coordinator.ReportBatch", late, &ack); err != nil {
		t.Fatalf("late partial ReportBatch must not error: %v", err)
	}
	if after := coord.Snapshot(); ack.Folded != 0 || after.Executed != before.Executed || after.Failed != before.Failed {
		t.Fatalf("late report folded %d and moved the tallies: %+v -> %+v", ack.Folded, before, after)
	}
	res := coord.Result()
	if res.Executed != want || len(res.Records) != want {
		t.Fatalf("session executed %d tests (%d records), want %d", res.Executed, len(res.Records), want)
	}
	onceEach(t, res)
	if res.Failed != 6 || res.Crashed != 2 || res.Injected != 6 {
		t.Errorf("tallies = failed=%d crashed=%d injected=%d, want 6/2/6", res.Failed, res.Crashed, res.Injected)
	}
}

// TestNextBatchRetriesWhileLeasesOutstanding: a session with nothing
// left to lease answers retry while a lease is out, and done once the
// last one folds; a NextBatch waiting when that report lands hears so at
// once, not after its wait.
func TestNextBatchRetriesWhileLeasesOutstanding(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	var out TaskBatch
	if err := coord.NextBatch(BatchRequest{Manager: "m", Max: int(space.Size())}, &out); err != nil || len(out.Tasks) != int(space.Size()) {
		t.Fatalf("leased %+v (%v), want the whole space", out, err)
	}
	report := func(tasks []TaskWire) {
		t.Helper()
		rb := ResultBatch{Manager: "m"}
		for _, tw := range tasks {
			rb.Results = append(rb.Results, ResultWire{Seq: tw.Seq})
		}
		var ack BatchAck
		if err := coord.ReportBatch(rb, &ack); err != nil || ack.Folded != len(tasks) {
			t.Fatalf("report folded %d of %d (%v)", ack.Folded, len(tasks), err)
		}
	}
	poll := func() TaskBatch {
		t.Helper()
		var batch TaskBatch
		if err := coord.NextBatch(BatchRequest{Manager: "n", Max: 1}, &batch); err != nil {
			t.Fatal(err)
		}
		return batch
	}
	report(out.Tasks[1:])
	coord.mu.Lock()
	g := coord.book.Lease(coord.now(), "n", 1, 0)
	coord.book.wake = nil // so the poll's Retry makes the next one
	coord.mu.Unlock()
	if g.Done || !g.Retry || g.wake == nil {
		t.Fatalf("drained session with a lease out: got %+v, want Retry", g)
	}
	polled := make(chan TaskBatch)
	start := time.Now()
	go func() { polled <- poll() }()
	for waiting := false; !waiting; {
		runtime.Gosched()
		coord.mu.Lock()
		waiting = coord.book.wake != nil
		coord.mu.Unlock()
	}
	report(out.Tasks[:1])
	if batch := <-polled; !batch.Done || batch.Retry {
		t.Fatalf("the last report landed during a poll: got %+v, want Done", batch)
	}
	if waited := time.Since(start); waited >= pollWait {
		t.Fatalf("the waiting poll heard of the last report after %v, its whole wait", waited)
	}
	if batch := poll(); !batch.Done {
		t.Fatalf("drained session with nothing out: got %+v, want Done", batch)
	}
}

// TestHeartbeatLeaseExpiry: a manager that beats is never declared
// dead, however long its lease; one that falls silent is, after missing
// missedBeats beats, and only its leases go back — to the next manager
// that asks, in the order they were first leased.
func TestHeartbeatLeaseExpiry(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	clk := &stepClock{}
	coord.now = clk.Now
	take := func(manager string, n int) []TaskWire {
		var batch TaskBatch
		if err := coord.NextBatch(BatchRequest{Manager: manager, Max: n}, &batch); err != nil {
			t.Fatal(err)
		}
		return batch.Tasks
	}
	slow, silent := take("slow", 2), take("silent", 3)
	var ack bool
	for beat := 0; beat < missedBeats; beat++ {
		clk.Advance(DefaultHeartbeat)
		if err := coord.Heartbeat("slow", &ack); err != nil {
			t.Fatal(err)
		}
	}
	if len(coord.book.relet) != 0 || len(coord.book.leases) != 5 {
		t.Fatalf("declared a manager dead on time: %d leases out, %d to re-lease", len(coord.book.leases), len(coord.book.relet))
	}
	clk.Advance(time.Nanosecond)
	re := take("fresh", 8)
	if len(re) != 6 {
		t.Fatalf("leased %d, want the silent manager's 3 and the space's last 3", len(re))
	}
	for i, tw := range silent {
		if re[i].Sub != tw.Sub || !reflect.DeepEqual(re[i].Fault, tw.Fault) || re[i].Seq <= slow[1].Seq {
			t.Fatalf("re-lease %d is %+v, want %+v under a new seq", i, re[i], tw)
		}
	}
	for _, c := range []struct {
		manager string
		tasks   []TaskWire
		folded  int
	}{{"silent", silent, 0}, {"slow", slow, len(slow)}} {
		report := ResultBatch{Manager: c.manager}
		for _, tw := range c.tasks {
			report.Results = append(report.Results, ResultWire{Seq: tw.Seq})
		}
		var folded BatchAck
		if err := coord.ReportBatch(report, &folded); err != nil || folded.Folded != c.folded {
			t.Fatalf("the %s manager's report folded %d (%v), want %d", c.manager, folded.Folded, err, c.folded)
		}
	}
}
