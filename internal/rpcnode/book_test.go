package rpcnode

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
)

// wideSpace is 600 points: enough for several full leases.
func wideSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 9),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 1, 30),
	))
}

// newBook returns a lease book over a fresh engine that explores space
// exhaustively under budget (0 = none), its lock held as a
// coordinator's is across every call.
func newBook(t *testing.T, space *faultspace.Union, budget int) (*LeaseBook, *core.Engine) {
	t.Helper()
	eng, err := core.NewEngine(core.Config{Space: space, Iterations: budget}, explore.NewExhaustive(space))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	mu.Lock()
	return NewLeaseBook(eng, space, &mu), eng
}

// TestNextBatchBoundsTheWireMax: a lease request's Max comes off the
// wire, and a session without an iteration budget bounds it nowhere
// else, so the book caps it at core.MaxWireBatch. Uncapped, a manager
// asking for 1<<40 tasks had the explorer reserve room for all of them
// up front, and the coordinator process died out of memory.
func TestNextBatchBoundsTheWireMax(t *testing.T) {
	coord := newCoordinator(t, wideSpace(), nil, 0, nil)
	var reply HelloReply
	if err := coord.Hello(Hello{Manager: "m", Proto: protoBatched}, &reply); err != nil {
		t.Fatal(err)
	}
	var batch TaskBatch
	if err := coord.NextBatch(BatchRequest{Manager: "m", Max: 1 << 40}, &batch); err != nil || len(batch.Tasks) != core.MaxWireBatch {
		t.Fatalf("a request for 1<<40 tasks leased %d (%v), want core.MaxWireBatch = %d", len(batch.Tasks), err, core.MaxWireBatch)
	}
}

// TestLeaseBookReportAllocatesNothing: in steady state a report folds
// through the book's own fold buffer and the engine's storage, so
// LeaseBook.Report allocates nothing.
func TestLeaseBookReportAllocatesNothing(t *testing.T) {
	space := wideSpace()
	book, _ := newBook(t, space, int(space.Size()))
	now := time.Unix(0, 0)
	const per, runs = 4, 100
	var seqs []int
	for len(seqs) < (runs+1)*per {
		for _, tw := range book.Lease(now, "a", per, 0).Tasks {
			seqs = append(seqs, tw.Seq)
		}
	}
	seq := func(i int) int { return seqs[i] }
	test := func(_ int, task Task) core.ExecutedTest {
		return core.ExecutedTest{C: task.Cand, Rec: core.Record{Point: task.Cand.Point, Scenario: task.Scenario}}
	}
	if n := testing.AllocsPerRun(runs, func() {
		if folded := book.Report(now, "a", per, seq, test); folded != per {
			t.Fatalf("a report of %d leases folded %d", per, folded)
		}
		seqs = seqs[per:]
	}); n != 0 {
		t.Fatalf("a report of %d leases allocates %v times", per, n)
	}
}

// TestConcurrentReportsFoldOnce: three managers' ReportBatch calls reach
// one coordinator at once, each manager reporting its leases in several
// batches. Every lease folds exactly once, into a record that carries
// what its own manager reported, and no two records share a plan or a
// fault: the book reuses its fold buffers, and never two at a time.
func TestConcurrentReportsFoldOnce(t *testing.T) {
	space := wideSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	managers := []string{"a", "b", "c"}
	leased := map[string][]TaskWire{}
	tasks := map[int]TaskWire{} // by seq
	for i := 0; i < int(space.Size())/50; i++ {
		m := managers[i%len(managers)]
		var batch TaskBatch
		if err := coord.NextBatch(BatchRequest{Manager: m, Max: 50}, &batch); err != nil || len(batch.Tasks) != 50 {
			t.Fatalf("%s leased %d tasks (%v), want 50", m, len(batch.Tasks), err)
		}
		leased[m] = append(leased[m], batch.Tasks...)
		for _, tw := range batch.Tasks {
			tasks[tw.Seq] = tw
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for m, held := range leased {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for len(held) > 0 {
				k := min(len(held), 7)
				rb := ResultBatch{Manager: m}
				for _, tw := range held[:k] {
					rb.Results = append(rb.Results, ResultWire{Seq: tw.Seq, TestID: tw.Seq, ExitStatus: m})
				}
				var ack BatchAck
				if err := coord.ReportBatch(rb, &ack); err != nil || ack.Folded != k {
					t.Errorf("%s's report of %d leases folded %d (%v)", m, k, ack.Folded, err)
					return
				}
				held = held[k:]
			}
		}()
	}
	close(start)
	wg.Wait()
	res := coord.Result()
	if len(res.Records) != len(tasks) {
		t.Fatalf("%d records for %d leases", len(res.Records), len(tasks))
	}
	plans, faults := map[*inject.Fault]bool{}, map[*int]bool{}
	for _, rec := range res.Records {
		tw, ok := tasks[rec.TestID]
		if !ok {
			t.Fatalf("record %d folds seq %d, which was never leased or folded twice", rec.ID, rec.TestID)
		}
		delete(tasks, rec.TestID)
		if holder := rec.ExitStatus; leased[holder] == nil || rec.Point.Sub != tw.Sub || !slices.Equal([]int(rec.Point.Fault), tw.Fault) {
			t.Fatalf("record %d of seq %d: point %v reported by %q, leased %v", rec.ID, rec.TestID, rec.Point, holder, tw.Fault)
		}
		if len(rec.Plan.Faults) != 1 || plans[&rec.Plan.Faults[0]] || faults[&rec.Point.Fault[0]] {
			t.Fatalf("record %d shares its plan or its fault with another", rec.ID)
		}
		plans[&rec.Plan.Faults[0]], faults[&rec.Point.Fault[0]] = true, true
	}
}

// TestConcurrentLeasesFoldOnce: three managers lease from one
// coordinator. c dies holding its first lease, which a and b wait for;
// a's first report moves the clock past c's miss budget, so the next
// beat re-queues c's leases (and perhaps b's), and a and b, leasing at
// once, take from the re-lease queue and the explorer side by side.
// Every candidate folds exactly once, none of them c's, and the budget
// lands exactly.
func TestConcurrentLeasesFoldOnce(t *testing.T) {
	space := wideSpace()
	const budget = 300
	coord := newCoordinator(t, space, explore.NewExhaustive(space), budget, nil)
	clk := &stepClock{}
	coord.now = clk.Now
	var reaped sync.Once
	var dead []TaskWire
	cLeased := make(chan struct{})
	run := func(m string) {
		if m == "c" {
			defer close(cLeased)
		} else {
			<-cLeased
		}
		for {
			var batch TaskBatch
			if err := coord.NextBatch(BatchRequest{Manager: m, Max: 8}, &batch); err != nil {
				t.Errorf("%s: %v", m, err)
				return
			}
			if batch.Done {
				return
			}
			if m == "c" && len(batch.Tasks) > 0 {
				dead = batch.Tasks // and c never calls again
				return
			}
			rb := ResultBatch{Manager: m}
			for _, tw := range batch.Tasks {
				rb.Results = append(rb.Results, ResultWire{Seq: tw.Seq, ExitStatus: m})
			}
			var ack BatchAck
			if err := coord.ReportBatch(rb, &ack); err != nil {
				t.Errorf("%s: %v", m, err)
				return
			}
			if m == "a" && ack.Folded > 0 {
				reaped.Do(func() { clk.Advance(deathAfter) })
			}
		}
	}
	var wg sync.WaitGroup
	for _, m := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(m)
		}()
	}
	wg.Wait()
	if len(dead) == 0 {
		t.Fatal("c leased nothing")
	}
	res := coord.Result()
	if res.Executed != budget || len(res.Records) != budget {
		t.Fatalf("executed %d, %d records; want the budget, %d", res.Executed, len(res.Records), budget)
	}
	by := map[string]core.Record{}
	for _, rec := range res.Records {
		if _, twice := by[rec.Point.Key()]; twice {
			t.Fatalf("point %v folds twice", rec.Point)
		}
		by[rec.Point.Key()] = rec
	}
	for _, tw := range dead {
		rec, ok := by[faultspace.Point{Sub: tw.Sub, Fault: tw.Fault}.Key()]
		if !ok || rec.ExitStatus == "c" {
			t.Fatalf("c's lease of %v folded %v (%+v), want once by a survivor", tw.Fault, ok, rec)
		}
	}
	if n := coord.Snapshot().PerManager["c"]; n != 0 {
		t.Fatalf("the dead manager folded %d", n)
	}
}

// TestLeaseFaultsSurviveARelet: a task carries its candidate's fault, not
// a copy, since nothing writes a fault once it is leased; the dead
// manager's tasks re-leased to another carry the same faults.
func TestLeaseFaultsSurviveARelet(t *testing.T) {
	book, _ := newBook(t, wideSpace(), 0)
	now := time.Unix(0, 0)
	first := book.Lease(now, "a", 5, 0).Tasks
	want := make([][]int, len(first))
	for i, tw := range first {
		if cand := book.leases[tw.Seq].Cand; cand.Point.Sub != tw.Sub || &cand.Point.Fault[0] != &tw.Fault[0] {
			t.Fatalf("seq %d ships %d/%v, not candidate %v's own fault", tw.Seq, tw.Sub, tw.Fault, cand.Point)
		}
		want[i] = slices.Clone(tw.Fault)
	}
	again := book.Lease(now.Add(deathAfter), "b", len(first), 0).Tasks
	if len(again) != len(first) {
		t.Fatalf("b was re-leased %d of a's %d tasks", len(again), len(first))
	}
	for i, tw := range again {
		if cand := book.leases[tw.Seq].Cand; tw.Seq == first[i].Seq || tw.Sub != first[i].Sub || !slices.Equal(tw.Fault, want[i]) || &cand.Point.Fault[0] != &tw.Fault[0] {
			t.Fatalf("re-let seq %d ships %v for candidate %v, want a's %v under a new seq", tw.Seq, tw.Fault, cand.Point, want[i])
		}
	}
}

// TestReportFoldsOnlyForTheHolder: a report folds only the seqs its
// sender holds. Manager b's report of a's lease folds nothing and counts
// for no one; a's own report then folds both of its leases.
func TestReportFoldsOnlyForTheHolder(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	var batch TaskBatch
	if err := coord.NextBatch(BatchRequest{Manager: "a", Max: 2}, &batch); err != nil || len(batch.Tasks) != 2 {
		t.Fatalf("a leased %+v (%v), want 2 tasks", batch, err)
	}
	report := func(manager string, tasks []TaskWire) int {
		t.Helper()
		rb := ResultBatch{Manager: manager}
		for _, tw := range tasks {
			rb.Results = append(rb.Results, ResultWire{Seq: tw.Seq, Failed: true, Injected: true})
		}
		var ack BatchAck
		if err := coord.ReportBatch(rb, &ack); err != nil {
			t.Fatal(err)
		}
		return ack.Folded
	}
	if n := report("b", batch.Tasks[:1]); n != 0 {
		t.Fatalf("b's report of a's lease folded %d, want 0", n)
	}
	if n := report("a", batch.Tasks); n != 2 {
		t.Fatalf("a's report of its own leases folded %d, want 2", n)
	}
	if snap := coord.Snapshot(); snap.Executed != 2 || len(snap.PerManager) != 1 || snap.PerManager["a"] != 2 {
		t.Fatalf("executed %d, per manager %v; want 2, a:2", snap.Executed, snap.PerManager)
	}
}

// TestHelloAdmitsByTarget: a coordinator refuses a manager that runs
// another model target than its session's, naming both, and folds
// nothing from it; a manager naming no target (a process backend, or an
// older client) and one naming the session's target are admitted.
func TestHelloAdmitsByTarget(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	coord.SetTargetName("rpc")
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	other := rpcTarget()
	other.Name = "mysqld"
	if mgr, err := Dial(srv.Addr(), "wrong", other); err == nil {
		mgr.Close()
		t.Fatal("a manager running mysqld joined an rpc session")
	} else if !strings.Contains(err.Error(), `"mysqld"`) || !strings.Contains(err.Error(), `"rpc"`) {
		t.Fatalf("refusal %q does not name both targets", err)
	} else if n := strings.Count(err.Error(), "rpcnode:"); n != 1 {
		t.Fatalf("refusal %q names the package %d times, want once", err, n)
	}
	var reply HelloReply
	if err := coord.Hello(Hello{Manager: "traced", Proto: protoBatched}, &reply); err != nil {
		t.Fatalf("a Hello naming no target was refused: %v", err)
	}
	mgr, err := Dial(srv.Addr(), "right", rpcTarget())
	if err != nil {
		t.Fatalf("a manager running the session's target was refused: %v", err)
	}
	defer mgr.Close()
	if n, err := mgr.RunUntilDone(); err != nil || n != int(space.Size()) {
		t.Fatalf("the admitted manager ran %d (%v), want %d", n, err, space.Size())
	}
	if snap := coord.Snapshot(); len(snap.PerManager) != 1 || snap.PerManager["right"] != int(space.Size()) {
		t.Fatalf("per manager %v, want only right's %d", snap.PerManager, space.Size())
	}
}

// TestCloseDrainsInFlightLease: Server.Close answers a NextBatch in
// flight — one waiting, as a manager's prefetched lease does, for a
// report — with Done, and closes the connection only once the manager
// has hung up.
func TestCloseDrainsInFlightLease(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	client, err := dialCoordinator(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var all TaskBatch
	if err := client.Call("Coordinator.NextBatch", BatchRequest{Manager: "a", Max: int(space.Size())}, &all); err != nil || len(all.Tasks) != int(space.Size()) {
		t.Fatalf("leased %+v (%v), want the whole space", all, err)
	}
	prefetched := client.Go("Coordinator.NextBatch", BatchRequest{Manager: "a"}, new(TaskBatch), nil)
	for waiting := false; !waiting; time.Sleep(time.Millisecond) {
		coord.mu.Lock()
		waiting = coord.book.wake != nil
		coord.mu.Unlock()
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-prefetched.Done:
	case <-time.After(pollWait / 2):
		t.Fatal("Close left the waiting NextBatch unanswered")
	}
	if batch := prefetched.Reply.(*TaskBatch); prefetched.Error != nil || !batch.Done {
		t.Fatalf("the NextBatch in flight at Close got %+v (%v), want Done", batch, prefetched.Error)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while the manager was still connected")
	case <-time.After(50 * time.Millisecond):
	}
	client.Close()
	select {
	case <-closed:
	case <-time.After(missedBeats * DefaultHeartbeat):
		t.Fatal("Close did not return once the manager hung up")
	}
}

// FuzzLeaseBook drives a lease book directly, on a step clock, through
// any sequence of leases, reports, beats and silences by three managers:
// after every step the leases out plus those waiting to be re-leased are
// the engine's pending, no candidate folds twice, a report folds exactly
// the seqs its sender holds, and Done comes only with nothing out. A
// last manager then drains the session: every point of the space (or the
// budget) folds once. A lease asks for up to 1<<40 tasks, as a request
// off the wire may, and budgets of 128 and up lease from a search that
// generates one candidate at a time.
func FuzzLeaseBook(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 3, 0x01, 0xff, 0x02, 7, 0x04, 2, 0x05, 0xff})
	f.Add(uint8(5), []byte{0x00, 0, 0x04, 0, 0x02, 7, 0x08, 1, 0x09, 0xff, 0x01, 0xff})
	f.Add(uint8(3), []byte{0x00, 2, 0x02, 2, 0x03, 0, 0x02, 6, 0x04, 4, 0x05, 0x0f})
	f.Add(uint8(135), []byte{0x00, 0x80 + 40, 0x01, 0xff}) // 1<<40 tasks, no budget
	f.Fuzz(func(t *testing.T, budget uint8, ops []byte) {
		space := rpcSpace()
		ex := explore.Explorer(explore.NewExhaustive(space))
		if budget >= 128 {
			ex = explore.NewRandom(space, int64(budget))
		}
		eng, err := core.NewEngine(core.Config{Space: space, Iterations: int(budget % 9)}, ex)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		mu.Lock()
		book := NewLeaseBook(eng, space, &mu)
		clk := &stepClock{}
		managers := []string{"a", "b", "c"}
		held := map[int]string{} // the seqs out, by holder
		var seqs []int           // every seq leased, in order
		folded := map[string]bool{}
		balanced := func(step string) {
			t.Helper()
			if out, pending := len(book.leases)+len(book.relet), eng.Snapshot().Pending; out != pending {
				t.Fatalf("after %s: %d leases out or waiting, engine pending %d", step, out, pending)
			}
			for seq, task := range book.leases {
				if held[seq] != task.holder {
					t.Fatalf("after %s: seq %d held by %q, the book says %q", step, seq, held[seq], task.holder)
				}
			}
		}
		lease := func(m string, n int) Grant {
			g := book.Lease(clk.Now(), m, n, 0)
			if g.Done && (len(book.leases)+book.leasing > 0 && !eng.Stopped()) {
				t.Fatalf("Done with %d leases out", len(book.leases))
			}
			for _, tw := range g.Tasks {
				if _, dup := held[tw.Seq]; dup || book.leases[tw.Seq].holder != m {
					t.Fatalf("seq %d leased twice or to %q, not %q", tw.Seq, book.leases[tw.Seq].holder, m)
				}
				held[tw.Seq], seqs = m, append(seqs, tw.Seq)
			}
			return g
		}
		report := func(m string, pick []int) int {
			return book.Report(clk.Now(), m, len(pick), func(i int) int { return pick[i] }, func(_ int, task Task) core.ExecutedTest {
				if k := task.Cand.Key(); folded[k] {
					t.Fatalf("point %s folds twice", k)
				} else {
					folded[k] = true
				}
				return core.ExecutedTest{C: task.Cand, Rec: core.Record{Point: task.Cand.Point, Scenario: task.Scenario}}
			})
		}
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			m := managers[int(op>>2)%len(managers)]
			switch op & 3 {
			case 0:
				n := int(arg % 4)
				if arg >= 0x80 {
					n = 1 << ((arg - 0x80) % 41)
				}
				lease(m, n)
				balanced(m + "'s lease")
			case 1:
				var pick []int
				want := 0
				for i, seq := range seqs {
					if arg>>(i%8)&1 != 0 {
						pick = append(pick, seq)
						if held[seq] == m {
							delete(held, seq)
							want++
						}
					}
				}
				if n := report(m, pick); n != want {
					t.Fatalf("%s's report folded %d, it held %d of the seqs", m, n, want)
				}
				balanced(m + "'s report")
			case 2:
				clk.Advance(time.Duration(arg%8) * DefaultHeartbeat / 2)
			case 3:
				book.Beat(clk.Now(), m)
				balanced(m + "'s beat")
			}
			// A seq the book re-queued is no one's until it is leased again.
			for seq := range held {
				if _, out := book.leases[seq]; !out {
					delete(held, seq)
				}
			}
		}
		clk.Advance(deathAfter)
		for {
			g := lease("last", 3)
			if g.Done {
				break
			}
			if g.Retry {
				t.Fatalf("the last manager told to retry with %d out, %d to re-lease", len(book.leases), len(book.relet))
			}
			pick := make([]int, len(g.Tasks))
			for i, tw := range g.Tasks {
				pick[i] = tw.Seq
				delete(held, tw.Seq)
			}
			if n := report("last", pick); n != len(pick) {
				t.Fatalf("the last manager's report folded %d of %d", n, len(pick))
			}
			balanced("the drain")
		}
		want := int(space.Size())
		if b := int(budget % 9); b > 0 && b < want {
			want = b
		}
		if snap := eng.Snapshot(); snap.Executed != want || len(folded) != want {
			t.Fatalf("the session folded %d (%d distinct), want %d", snap.Executed, len(folded), want)
		}
	})
}

// TestLeaseBookWakesRetriesAtTheEnd: a lessee told to retry only because
// another call was inside Engine.LeaseFor is woken when that call finds the
// session over, not left waiting for a report that will never come.
func TestLeaseBookWakesRetriesAtTheEnd(t *testing.T) {
	book, _ := newBook(t, rpcSpace(), 1)
	now := time.Unix(0, 0)
	g := book.Lease(now, "a", 1, 0)
	if len(g.Tasks) != 1 {
		t.Fatalf("leased %+v, want the budget's one task", g)
	}
	folded := book.Report(now, "a", 1, func(int) int { return g.Tasks[0].Seq }, func(_ int, task Task) core.ExecutedTest {
		return core.ExecutedTest{C: task.Cand, Rec: core.Record{Point: task.Cand.Point}}
	})
	if folded != 1 {
		t.Fatalf("folded %d, want 1", folded)
	}
	book.leasing++ // another call is inside Engine.LeaseFor
	waiting := book.Lease(now, "b", 1, 0)
	if !waiting.Retry {
		t.Fatalf("with a lease call in flight: got %+v, want Retry", waiting)
	}
	book.leasing--
	if g := book.Lease(now, "a", 1, 0); !g.Done {
		t.Fatalf("with nothing out: got %+v, want Done", g)
	}
	select {
	case <-waiting.wake:
	default:
		t.Fatal("the Done answer left the retrying lessee asleep")
	}
}

// TestCloseBoundsAnIdleManager: a manager that never hangs up holds
// Server.Close for one miss budget, not longer, and then finds its
// connection closed.
func TestCloseBoundsAnIdleManager(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	client, err := dialCoordinator(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var reply HelloReply
	if err := client.Call("Coordinator.Hello", Hello{Manager: "idle", Proto: protoBatched}, &reply); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	srv.Close()
	if took, budget := time.Since(start), missedBeats*DefaultHeartbeat; took < budget-100*time.Millisecond || took > 2*budget {
		t.Fatalf("Close took %v with an idle manager connected, want one miss budget (%v)", took, budget)
	}
	var ack bool
	if err := client.Call("Coordinator.Heartbeat", "idle", &ack); err == nil {
		t.Fatal("the idle manager's connection outlived Close")
	}
}
