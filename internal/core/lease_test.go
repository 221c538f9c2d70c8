package core

import (
	"testing"
	"time"

	"afex/internal/explore"
	"afex/internal/faultspace"
)

// Lease-expiry satellite tests: candidates leased but never folded
// (dead distributed manager, killed worker process) must re-lease after
// Config.LeaseTimeout instead of leaking until Finish, and re-leased
// candidates must fold exactly once.

const testLeaseTimeout = 30 * time.Millisecond

// leaseExpiryEngine builds a lease-expiry engine on a fake clock: its
// leases expire only when the test advances the clock past them.
func leaseExpiryEngine(t *testing.T, iterations int) (*Engine, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	eng, err := NewEngine(Config{
		Target:       sessionTarget(),
		Space:        sessionSpace(),
		Algorithm:    "exhaustive",
		Iterations:   iterations,
		LeaseTimeout: testLeaseTimeout,
		clock:        clk,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, clk
}

// drain drives the engine like a surviving worker: execute whatever
// Lease hands out and, when it hands out nothing but leases are still
// outstanding, move the clock past their expiry, until the session
// neither hands out work nor waits on outstanding leases.
func drain(t *testing.T, eng *Engine, clk *fakeClock) {
	t.Helper()
	exec := eng.LocalExecutor()
	for expiries := 0; ; {
		cands := eng.Lease(4)
		if len(cands) == 0 {
			if !eng.Waiting() {
				return
			}
			if expiries++; expiries > 10 {
				t.Fatal("session did not drain: lost leases never re-leased")
			}
			clk.Advance(testLeaseTimeout)
			continue
		}
		for _, c := range cands {
			rec, out := exec.Execute(c)
			eng.Fold(c, rec, out)
		}
	}
}

// TestLeaseExpiryReleasesLostCandidates simulates a manager that leases
// a batch and disconnects: the session still executes every point of
// the space, exactly once.
func TestLeaseExpiryReleasesLostCandidates(t *testing.T) {
	eng, clk := leaseExpiryEngine(t, 0)
	lost := eng.Lease(5) // the dead manager's batch — never folded
	if len(lost) != 5 {
		t.Fatalf("leased %d candidates, want 5", len(lost))
	}
	drain(t, eng, clk)
	res := eng.Finish()
	if want := int(sessionSpace().Size()); res.Executed != want {
		t.Fatalf("executed %d tests, want the whole %d-point space", res.Executed, want)
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %s executed twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
	for _, c := range lost {
		if !seen[c.Point.Key()] {
			t.Errorf("lost lease %s was never re-leased and executed", c.Point.Key())
		}
	}
}

// TestLeaseExpiryRespectsIterationsBudget: re-leases ride outside the
// Iterations arithmetic (their budget was committed at first lease), so
// a session whose remaining budget is stuck on lost leases drains to
// exactly the budget — no stall, no overshoot.
func TestLeaseExpiryRespectsIterationsBudget(t *testing.T) {
	const budget = 10
	eng, clk := leaseExpiryEngine(t, budget)
	if got := len(eng.Lease(4)); got != 4 {
		t.Fatalf("leased %d, want 4", got)
	}
	drain(t, eng, clk)
	res := eng.Finish()
	if res.Executed != budget {
		t.Fatalf("executed %d, want exactly the budget %d", res.Executed, budget)
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %s executed twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
}

// TestLeaseExpiryDropsDuplicateFold: when a presumed-dead executor
// reports after its candidate was re-leased and folded, the late
// duplicate is dropped — each candidate folds exactly once.
func TestLeaseExpiryDropsDuplicateFold(t *testing.T) {
	eng, clk := leaseExpiryEngine(t, 0)
	exec := eng.LocalExecutor()
	cands := eng.Lease(1)
	if len(cands) != 1 {
		t.Fatal("no candidate leased")
	}
	c := cands[0]
	clk.Advance(testLeaseTimeout)
	re := eng.Lease(1)
	if len(re) != 1 || re[0].Point.Key() != c.Point.Key() {
		t.Fatalf("expired lease not re-leased first: got %v", re)
	}
	rec, out := exec.Execute(re[0])
	eng.Fold(re[0], rec, out)
	if got := eng.Snapshot().Executed; got != 1 {
		t.Fatalf("executed %d after first fold, want 1", got)
	}
	// The original executor comes back from the dead and reports too.
	rec2, out2 := exec.Execute(c)
	eng.Fold(c, rec2, out2)
	snap := eng.Snapshot()
	if snap.Executed != 1 {
		t.Fatalf("duplicate fold counted: executed %d, want 1", snap.Executed)
	}
	if snap.Pending != 0 {
		t.Fatalf("pending %d after duplicate fold, want 0", snap.Pending)
	}
}

// TestLeaseExpiryDeterministicOrder: expired leases re-lease in their
// original lease order — oldest first out of the expiry heap — and two
// identically configured engines agree on it. The map walk the heap
// replaced handed expired leases out in random map-iteration order.
func TestLeaseExpiryDeterministicOrder(t *testing.T) {
	reLease := func() []string {
		eng, clk := leaseExpiryEngine(t, 0)
		first := eng.Lease(6)
		if len(first) != 6 {
			t.Fatalf("leased %d candidates, want 6", len(first))
		}
		want := make([]string, len(first))
		for i, c := range first {
			want[i] = c.Point.Key()
		}
		clk.Advance(testLeaseTimeout)
		// One at a time, so each call must pick the single oldest expiry.
		var got []string
		for range want {
			re := eng.Lease(1)
			if len(re) != 1 {
				t.Fatalf("re-lease handed out %d candidates, want 1", len(re))
			}
			got = append(got, re[0].Point.Key())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("re-lease order diverged at %d: got %q, want original lease order %q", i, got[i], want[i])
			}
		}
		return got
	}
	a := reLease()
	b := reLease()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two identical engines re-leased in different orders at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestUnleaseWithLeaseTimeoutIsNoop: with expiry tracking on, Unlease
// must not discard candidates — they stay committed and re-lease on
// expiry, so the session still covers the whole space.
func TestUnleaseWithLeaseTimeoutIsNoop(t *testing.T) {
	eng, clk := leaseExpiryEngine(t, 0)
	batch := eng.Lease(4)
	if len(batch) != 4 {
		t.Fatalf("leased %d candidates, want 4", len(batch))
	}
	eng.Unlease(len(batch)) // a worker shutting down mid-batch
	drain(t, eng, clk)
	res := eng.Finish()
	if want := int(sessionSpace().Size()); res.Executed != want {
		t.Fatalf("executed %d tests, want the whole %d-point space — Unlease dropped tracked leases", res.Executed, want)
	}
}

// TestUnleaseReturnsBudgetWithoutTimeout: without expiry tracking,
// Unlease refunds the Iterations budget, so a session whose worker died
// mid-batch still executes the full budget on other candidates.
func TestUnleaseReturnsBudgetWithoutTimeout(t *testing.T) {
	const budget = 10
	eng, err := NewEngine(Config{
		Target:     sessionTarget(),
		Space:      sessionSpace(),
		Algorithm:  "exhaustive",
		Iterations: budget,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dropped := eng.Lease(4)
	if len(dropped) != 4 {
		t.Fatalf("leased %d candidates, want 4", len(dropped))
	}
	eng.Unlease(len(dropped))
	exec := eng.LocalExecutor()
	for {
		cands := eng.Lease(3)
		if len(cands) == 0 {
			break
		}
		for _, c := range cands {
			rec, out := exec.Execute(c)
			eng.Fold(c, rec, out)
		}
	}
	res := eng.Finish()
	// Without the refund only budget-4 tests could run; the 16-point
	// space leaves plenty of fresh candidates to spend the refund on.
	if res.Executed != budget {
		t.Fatalf("executed %d, want the full budget %d after Unlease refund", res.Executed, budget)
	}
}

// TestLeaseExpiryOffTrustsExecutors: without LeaseTimeout nothing is
// tracked — Lease never re-hands a candidate and Waiting is always
// false — preserving the seed semantics for every existing session.
func TestLeaseExpiryOffTrustsExecutors(t *testing.T) {
	clk := newFakeClock()
	eng, err := NewEngine(Config{
		Target:    sessionTarget(),
		Space:     sessionSpace(),
		Algorithm: "exhaustive",
		clock:     clk,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := eng.Lease(3)
	if len(first) != 3 {
		t.Fatal("lease failed")
	}
	clk.Advance(time.Hour)
	if eng.Waiting() {
		t.Fatal("Waiting() true without LeaseTimeout")
	}
	seen := map[string]bool{}
	for _, c := range first {
		seen[c.Point.Key()] = true
	}
	for {
		cands := eng.Lease(4)
		if len(cands) == 0 {
			break
		}
		for _, c := range cands {
			if seen[c.Point.Key()] {
				t.Fatalf("point %s leased twice without expiry", c.Point.Key())
			}
			seen[c.Point.Key()] = true
		}
	}
	if len(seen) != int(sessionSpace().Size()) {
		t.Fatalf("leased %d distinct points, want %d", len(seen), sessionSpace().Size())
	}
}

// TestScenarioKeyBuiltOnce: a candidate's key is rendered where the
// explorer accepts it and carried from there — through the bandit, the
// shards, the novelty filter, the lease table (expiry on, so Lease books
// every key), precompute and the explorer's Report. Candidate.Key's
// fallback render, counted process-wide, must never run for a session
// the engine generated itself.
func TestScenarioKeyBuiltOnce(t *testing.T) {
	space := faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 3),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 1, 60),
	))
	for _, shards := range []int{1, 3} {
		before := explore.KeyFallbacks()
		res, err := Run(Config{
			Target:       sessionTarget(),
			Space:        space,
			Algorithm:    "portfolio",
			Shards:       shards,
			Iterations:   300,
			Workers:      2,
			Batch:        8,
			LeaseTimeout: time.Minute,
			Seen:         explore.NewKeySet([]string{"0:0,0,0", "0:2,1,17"}),
			Explore:      explore.Config{Seed: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Executed != 300 {
			t.Fatalf("shards=%d: executed %d, want 300", shards, res.Executed)
		}
		if n := explore.KeyFallbacks() - before; n != 0 {
			t.Errorf("shards=%d: %d scenario keys rendered again downstream of the explorer", shards, n)
		}
	}
}
