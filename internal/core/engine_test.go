package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
)

// TestParallelParityWithSequential is the satellite contract for the
// batched parallel engine: Workers=8 with an Iterations budget executes
// exactly that many tests (never overshooting), every point at most
// once, and — on a deterministic seed — lands on the same
// failure/crash/cluster tallies as the sequential run, because the
// random explorer's candidate sequence does not depend on fold order.
// Run it under -race; it exercises the lease/execute/reduce pipeline.
func TestParallelParityWithSequential(t *testing.T) {
	const iterations = 12
	run := func(workers int) *ResultSet {
		res, err := Run(Config{
			Target:     sessionTarget(),
			Space:      sessionSpace(),
			Algorithm:  "random",
			Iterations: iterations,
			Workers:    workers,
			Batch:      3,
			Explore:    explore.Config{Seed: 11},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)

	if par.Executed != iterations || len(par.Records) != iterations {
		t.Fatalf("parallel executed %d tests (%d records), want exactly %d",
			par.Executed, len(par.Records), iterations)
	}
	seen := map[string]bool{}
	for _, rec := range par.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %v executed twice", rec.Point)
		}
		seen[rec.Point.Key()] = true
	}
	if seq.Executed != iterations {
		t.Fatalf("sequential executed %d, want %d", seq.Executed, iterations)
	}
	if par.Injected != seq.Injected || par.Failed != seq.Failed ||
		par.Crashed != seq.Crashed || par.Hung != seq.Hung {
		t.Errorf("tallies diverge: parallel inj=%d fail=%d crash=%d hung=%d, sequential inj=%d fail=%d crash=%d hung=%d",
			par.Injected, par.Failed, par.Crashed, par.Hung,
			seq.Injected, seq.Failed, seq.Crashed, seq.Hung)
	}
	if par.UniqueFailures != seq.UniqueFailures || par.UniqueCrashes != seq.UniqueCrashes {
		t.Errorf("cluster counts diverge: parallel %d/%d, sequential %d/%d",
			par.UniqueFailures, par.UniqueCrashes, seq.UniqueFailures, seq.UniqueCrashes)
	}
	// The parallel run folds in completion order, so records are a
	// permutation of the sequential run's — compare as sets.
	scen := func(r *ResultSet) map[string]bool {
		m := make(map[string]bool, len(r.Records))
		for _, rec := range r.Records {
			m[rec.Scenario] = true
		}
		return m
	}
	ps, ss := scen(par), scen(seq)
	for s := range ss {
		if !ps[s] {
			t.Errorf("parallel run missed scenario %q", s)
		}
	}
}

// TestConvertHolesAreCounted: a scenario the injector cannot express
// must not vanish silently — it is tallied as a hole, marked on the
// record, and surfaces in the report.
func TestConvertHolesAreCounted(t *testing.T) {
	space := faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 3),
		faultspace.SetAxis("function", "read", "frobnicate"), // not a libc function
		faultspace.IntAxis("callNumber", 1, 2),
	))
	res, err := Run(Config{
		Target:    sessionTarget(),
		Space:     space,
		Algorithm: "exhaustive",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 16 {
		t.Fatalf("executed %d, want the whole 16-point space", res.Executed)
	}
	// Half the space names the unknown function: 4 tests × 2 calls.
	if res.Holes != 8 {
		t.Errorf("holes = %d, want 8", res.Holes)
	}
	skipped := 0
	for _, rec := range res.Records {
		if rec.Skipped {
			skipped++
			if rec.Impact != 0 || rec.Outcome.Injected {
				t.Errorf("skipped record %d has impact %v injected %v", rec.ID, rec.Impact, rec.Outcome.Injected)
			}
			if !strings.Contains(rec.Scenario, "frobnicate") {
				t.Errorf("unexpected skipped scenario %q", rec.Scenario)
			}
		}
	}
	if skipped != res.Holes {
		t.Errorf("%d skipped records but Holes = %d", skipped, res.Holes)
	}
	if rep := res.Report(0); !strings.Contains(rep, "holes         8") {
		t.Errorf("report does not surface the holes:\n%s", rep)
	}
}

// TestConvertAllocatesTheTextAndThePlan: converting a single-fault
// candidate allocates its scenario text and its plan, nothing else,
// whatever the width of its numbers.
func TestConvertAllocatesTheTextAndThePlan(t *testing.T) {
	space := faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 300),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.SetAxis("errno", "EIO", "EINTR"),
		faultspace.SetAxis("retval", "-1"),
		faultspace.IntAxis("callNumber", 1, 500),
	))
	eng, err := NewEngine(Config{Target: sessionTarget(), Space: space}, explore.NewExhaustive(space))
	if err != nil {
		t.Fatal(err)
	}
	c := explore.CandidateAt(faultspace.Point{Fault: faultspace.Fault{250, 1, 1, 0, 399}})
	var rec Record
	if n := testing.AllocsPerRun(100, func() { rec, _, _ = eng.convert(c) }); n != 2 {
		t.Errorf("a conversion allocates %v times, want 2 (the text and the plan)", n)
	}
	if rec.Scenario != "testID 250 function write errno EINTR retval -1 callNumber 400" || rec.Plan.String() != "function write errno EINTR retval -1 callNumber 400" {
		t.Errorf("converted to %q, plan %s", rec.Scenario, rec.Plan)
	}
}

func TestNoHolesNoReportLine(t *testing.T) {
	res, err := Run(Config{Target: sessionTarget(), Space: sessionSpace(), Algorithm: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holes != 0 {
		t.Fatalf("clean space produced %d holes", res.Holes)
	}
	if strings.Contains(res.Report(0), "holes") {
		t.Error("hole line rendered for a hole-free session")
	}
}

// countingExecutor wraps another executor, counting executions — the
// deployment seam the engine exposes for custom drivers.
type countingExecutor struct {
	inner Executor
	n     atomic.Int64
}

func (c *countingExecutor) Execute(cand explore.Candidate) (Record, prog.Outcome) {
	c.n.Add(1)
	return c.inner.Execute(cand)
}

func TestEngineRunWithCustomExecutor(t *testing.T) {
	for _, workers := range []int{1, 4} {
		eng, err := NewEngine(Config{
			Target:     sessionTarget(),
			Space:      sessionSpace(),
			Algorithm:  "random",
			Iterations: 10,
			Workers:    workers,
			Batch:      4,
			Explore:    explore.Config{Seed: 2},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		exec := &countingExecutor{inner: eng.LocalExecutor()}
		eng.RunWith(exec)
		res := eng.Finish()
		if got := exec.n.Load(); got != 10 || res.Executed != 10 {
			t.Errorf("workers=%d: executor ran %d tests, result says %d, want 10", workers, got, res.Executed)
		}
	}
}

// TestTargetlessEngineGuardsLocalExecution: an engine without a Target
// (the distributed-coordinator shape) must refuse local execution with
// a clear panic, not a nil-pointer crash deep in the program model.
func TestTargetlessEngineGuardsLocalExecution(t *testing.T) {
	eng, err := NewEngine(Config{Space: sessionSpace(), Algorithm: "exhaustive"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("LocalExecutor on a target-less engine did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "no execution backend") {
			t.Fatalf("unhelpful panic: %v", r)
		}
	}()
	eng.LocalExecutor()
}

// TestLeaseRespectsBudgetAndStop drives the engine surface the
// distributed coordinator uses.
func TestLeaseRespectsBudgetAndStop(t *testing.T) {
	eng, err := NewEngine(Config{
		Target:     sessionTarget(),
		Space:      sessionSpace(),
		Algorithm:  "exhaustive",
		Iterations: 5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := eng.Lease(3)
	if len(first) != 3 {
		t.Fatalf("leased %d, want 3", len(first))
	}
	budgetAtRest(t, eng, "first Lease")
	second := eng.Lease(10)
	if len(second) != 2 {
		t.Fatalf("budget ignored: leased %d more, want 2", len(second))
	}
	budgetAtRest(t, eng, "second Lease")
	if extra := eng.Lease(1); extra != nil {
		t.Fatalf("over-budget lease granted: %v", extra)
	}
	budgetAtRest(t, eng, "over-budget Lease")
	// Returning budget re-opens the lease window.
	eng.Unlease(len(second))
	budgetAtRest(t, eng, "Unlease")
	if again := eng.Lease(10); len(again) != 2 {
		t.Fatalf("after Unlease: leased %d, want 2", len(again))
	}
	budgetAtRest(t, eng, "Lease after Unlease")
	exec := eng.LocalExecutor()
	done := make([]ExecutedTest, len(first))
	for i, c := range first {
		rec, out := exec.Execute(c)
		done[i] = ExecutedTest{C: c, Rec: rec, Out: out}
	}
	eng.FoldBatch(done)
	budgetAtRest(t, eng, "FoldBatch")
	eng.Stop()
	if after := eng.Lease(1); after != nil {
		t.Fatal("stopped engine still leases")
	}
	budgetAtRest(t, eng, "Lease after Stop")
}

// budgetAtRest asserts what holds of the lease budget whenever no Lease
// is mid-generation: every claim is an executed test or a pending one.
func budgetAtRest(t *testing.T, eng *Engine, step string) {
	t.Helper()
	executed := eng.Snapshot().Executed
	eng.exMu.Lock()
	committed, pending := eng.committed, eng.pending
	eng.exMu.Unlock()
	if committed != executed+pending {
		t.Fatalf("after %s: committed %d, want executed %d + pending %d", step, committed, executed, pending)
	}
}

// countingStore counts journal and snapshot deliveries.
type countingStore struct {
	mu      sync.Mutex
	records int
	snaps   int
}

func (s *countingStore) JournalRecord(c explore.Candidate, rec Record) {
	s.mu.Lock()
	s.records++
	s.mu.Unlock()
}

func (s *countingStore) SnapshotSession(st *SessionState) {
	s.mu.Lock()
	s.snaps++
	s.mu.Unlock()
}

func (s *countingStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// stoppingExplorer has the session stopped while it generates: another
// goroutine calls Stop, which lands while the Lease holds the explorer
// lock and waits for it, and generation ends once the stop is seen.
type stoppingExplorer struct {
	explore.Explorer
	eng *Engine
}

func (s *stoppingExplorer) BatchNext(n int) []explore.Candidate {
	next := explore.BatchNext(s.Explorer, n)
	go s.eng.Stop()
	for !s.eng.Stopped() {
		runtime.Gosched()
	}
	return next
}

// TestStopMidGenerationRefunds: a Lease caught generating by Stop hands
// out nothing and leaves no trace — nothing counted, nothing pending,
// nothing journaled.
func TestStopMidGenerationRefunds(t *testing.T) {
	inner, err := explore.New("random", sessionSpace(), explore.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex := &stoppingExplorer{Explorer: inner}
	st := &countingStore{}
	eng, err := NewEngine(Config{
		Target:        sessionTarget(),
		Space:         sessionSpace(),
		Iterations:    10,
		Store:         st,
		SnapshotEvery: 1 << 30,
	}, ex)
	if err != nil {
		t.Fatal(err)
	}
	ex.eng = eng
	if got := eng.Lease(4); got != nil {
		t.Fatalf("Lease stopped mid-generation handed out %d candidates", len(got))
	}
	<-eng.Done() // the Stop, once the Lease let go of the explorer lock
	budgetAtRest(t, eng, "Lease stopped mid-generation")
	if snap := eng.Snapshot(); snap.Pending != 0 {
		t.Fatalf("pending %d, want 0", snap.Pending)
	}
	if res := eng.Finish(); res.Executed != 0 {
		t.Fatalf("executed %d, want 0", res.Executed)
	}
	if n := st.count(); n != 0 {
		t.Fatalf("journaled %d records for candidates never handed out", n)
	}
}

// TestLeaseChecksDeadline closes the deadline gap: the TimeBudget used
// to be checked only inside the fold path, so a session whose tests
// never finished (or finished slowly) kept handing out candidates past
// the deadline. Lease itself must refuse once the budget has elapsed,
// with no fold required to notice.
func TestLeaseChecksDeadline(t *testing.T) {
	const budget = 250 * time.Millisecond
	clk := newFakeClock()
	eng, err := NewEngine(Config{
		Target:     sessionTarget(),
		Space:      sessionSpace(),
		Algorithm:  "exhaustive",
		TimeBudget: budget,
		clock:      clk,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first := eng.Lease(2); len(first) != 2 {
		t.Fatalf("pre-deadline lease handed out %d candidates, want 2", len(first))
	}
	clk.Advance(budget)
	// No fold has happened; the deadline alone must stop leasing.
	if late := eng.Lease(1); late != nil {
		t.Fatalf("lease granted %d candidates after the deadline with no fold", len(late))
	}
	if res := eng.Finish(); res.Executed != 0 {
		t.Errorf("executed %d, want 0 (nothing was folded)", res.Executed)
	}
}

// TestShardedSessionCoversDisjointRegions runs a full sharded session
// end-to-end through the engine: the candidate budget is honoured, no
// point executes twice, sequential sharded runs are deterministic, and
// exhausting the budgetless session covers the whole space exactly once.
func TestShardedSessionCoversDisjointRegions(t *testing.T) {
	run := func() *ResultSet {
		res, err := Run(Config{
			Target:     sessionTarget(),
			Space:      sessionSpace(),
			Algorithm:  "fitness",
			Shards:     4,
			Explore:    explore.Config{Seed: 7},
			Iterations: 0, // run to exhaustion
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Algorithm != "sharded-fitness" {
		t.Errorf("algorithm label = %q", res.Algorithm)
	}
	if int64(res.Executed) != sessionSpace().Size() {
		t.Fatalf("sharded session executed %d, want the whole %d-point space",
			res.Executed, sessionSpace().Size())
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %v executed twice across shards", rec.Point)
		}
		seen[rec.Point.Key()] = true
	}
	// Bit-for-bit determinism of the sequential sharded session.
	again := run()
	for i := range res.Records {
		if res.Records[i].Scenario != again.Records[i].Scenario {
			t.Fatalf("sharded sequential run not deterministic at record %d: %q vs %q",
				i, res.Records[i].Scenario, again.Records[i].Scenario)
		}
	}
}

// TestShardsComposeWithEveryStrategy: sharding wraps any registered
// strategy — sharded-random, sharded-genetic and sharded-exhaustive
// sessions run to their budget, label the result set "sharded-<name>",
// never execute a point twice, and sequential runs are deterministic.
func TestShardsComposeWithEveryStrategy(t *testing.T) {
	// A space wide enough that a 60-test budget samples it (6×2×10 =
	// 120 points; the shared sessionSpace has only 16).
	wideSpace := func() *faultspace.Union {
		return faultspace.NewUnion(faultspace.New("s",
			faultspace.IntAxis("testID", 0, 5),
			faultspace.SetAxis("function", "read", "write"),
			faultspace.IntAxis("callNumber", 1, 10),
		))
	}
	for _, alg := range []string{"random", "genetic", "exhaustive", "portfolio"} {
		t.Run(alg, func(t *testing.T) {
			run := func() *ResultSet {
				res, err := Run(Config{
					Target:     sessionTarget(),
					Space:      wideSpace(),
					Algorithm:  alg,
					Shards:     3,
					Iterations: 60,
					Explore:    explore.Config{Seed: 11},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := run()
			if res.Algorithm != "sharded-"+alg {
				t.Fatalf("result algorithm = %q, want %q", res.Algorithm, "sharded-"+alg)
			}
			if res.Executed != 60 {
				t.Fatalf("executed %d, want 60", res.Executed)
			}
			seen := make(map[string]bool)
			for _, rec := range res.Records {
				if seen[rec.Point.Key()] {
					t.Fatalf("point %s executed twice", rec.Point.Key())
				}
				seen[rec.Point.Key()] = true
			}
			again := run()
			for i := range res.Records {
				if res.Records[i].Scenario != again.Records[i].Scenario {
					t.Fatalf("sharded-%s sequential run not deterministic at record %d: %q vs %q",
						alg, i, res.Records[i].Scenario, again.Records[i].Scenario)
				}
			}
		})
	}
}

// TestUnknownAlgorithmFailsLoudly: explorer construction is
// error-returning; an unknown name must fail NewEngine with the list of
// valid strategies, sharded or not.
func TestUnknownAlgorithmFailsLoudly(t *testing.T) {
	for _, shards := range []int{0, 4} {
		_, err := NewEngine(Config{
			Target:    sessionTarget(),
			Space:     sessionSpace(),
			Algorithm: "simulated-annealing",
			Shards:    shards,
		}, nil)
		if err == nil || !strings.Contains(err.Error(), "valid:") {
			t.Fatalf("shards=%d: err = %v, want an unknown-algorithm error listing valid names", shards, err)
		}
	}
}

// TestParallelStopFoldsInFlightResults guards the stop semantics:
// stopping ends leasing, but every test that actually executed still
// folds into the result set — a deadline-bounded parallel session must
// not under-report faults it observed.
func TestParallelStopFoldsInFlightResults(t *testing.T) {
	res, err := Run(Config{
		Target:    sessionTarget(),
		Space:     sessionSpace(),
		Algorithm: "exhaustive",
		Workers:   4,
		Batch:     2,
		Stop:      func(s Snapshot) bool { return s.Failed >= 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != res.Executed {
		t.Fatalf("%d records for %d executed tests: in-flight results were dropped",
			len(res.Records), res.Executed)
	}
	for i, rec := range res.Records {
		if rec.ID != i {
			t.Fatalf("record IDs not contiguous: %d at index %d", rec.ID, i)
		}
	}
	// Recount from records: tallies must agree with what was folded.
	failed, crashed := 0, 0
	for _, rec := range res.Records {
		if rec.Outcome.Injected && rec.Outcome.Failed {
			failed++
			if rec.Outcome.Crashed {
				crashed++
			}
		}
	}
	if failed != res.Failed || crashed != res.Crashed {
		t.Errorf("tallies diverge from records: failed %d vs %d, crashed %d vs %d",
			res.Failed, failed, res.Crashed, crashed)
	}
	if res.Failed < 1 {
		t.Error("Stop fired before any failure folded")
	}
}

// stampedExecutor is a slow target that records when each test
// finished: each test moves the fake clock on by its cost.
type stampedExecutor struct {
	inner    Executor
	clk      *fakeClock
	cost     time.Duration
	finished map[string]time.Time
}

func (s *stampedExecutor) Execute(c explore.Candidate) (Record, prog.Outcome) {
	rec, out := s.inner.Execute(c)
	s.clk.Advance(s.cost)
	s.finished[c.Point.Key()] = s.clk.Now()
	return rec, out
}

// TestSlowTargetFoldsWhenFinished: on a target slower than foldEvery a
// result folds — journals, reaches Observe and Stop — when it finishes,
// not when the rest of its worker's lease batch does. One worker loop
// at a batch of four runs on the test's goroutine, so the only time
// that passes is its own tests'.
func TestSlowTargetFoldsWhenFinished(t *testing.T) {
	clk := newFakeClock()
	exec := &stampedExecutor{clk: clk, cost: 2 * foldEvery, finished: make(map[string]time.Time)}
	var worst time.Duration
	eng, err := NewEngine(Config{
		Target:     sessionTarget(),
		Space:      sessionSpace(),
		Algorithm:  "exhaustive",
		Iterations: 8,
		Observe: func(rec Record) {
			if lag := clk.Now().Sub(exec.finished[rec.Point.Key()]); lag > worst {
				worst = lag
			}
		},
		clock: clk,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec.inner = eng.LocalExecutor()
	work(eng, eng.cfg.clock, exec, 4, nil)
	if res := eng.Finish(); res.Executed != 8 {
		t.Fatalf("executed %d tests, want 8", res.Executed)
	}
	// Held to the end of a batch of four, the first result would wait
	// three more executions (6 × foldEvery).
	if worst >= foldEvery {
		t.Errorf("a finished result waited %v to fold, want under %v", worst, foldEvery)
	}
}

// TestStopMidBatchedSession: a Stop raised while workers hand whole
// lease batches to the engine's own executor ends leasing, not
// accounting — a batch already armed runs out and folds, a batch leased
// but not yet armed is unleased — so the budget the session committed is
// exactly what it executed and journaled, with nothing left pending.
func TestStopMidBatchedSession(t *testing.T) {
	const stopAt = 20
	st := &countingStore{}
	eng, err := NewEngine(Config{
		Target:        sessionTarget(),
		Space:         feedbackParitySpace(),
		Algorithm:     "exhaustive",
		Workers:       2,
		Batch:         8,
		Store:         st,
		SnapshotEvery: 1 << 30,
		Stop:          func(s Snapshot) bool { return s.Executed >= stopAt },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunLocal()
	if res.Executed < stopAt || res.Executed >= 200 {
		t.Fatalf("executed %d of 200 points, want the session stopped soon after %d", res.Executed, stopAt)
	}
	budgetAtRest(t, eng, "the stopped session")
	if pending := eng.Snapshot().Pending; pending != 0 {
		t.Fatalf("pending %d after executing %d: a leased candidate was neither folded nor unleased", pending, res.Executed)
	}
	if n := st.count(); n != res.Executed {
		t.Fatalf("journaled %d records for %d executed", n, res.Executed)
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("scenario %s folded twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
}
