package core

import (
	"testing"
	"time"

	"afex/internal/explore"
	"afex/internal/faultspace"
)

// The engine tracks no lease it could hand out twice: an executor
// folds or unleases what it leased, and a lease lost with a remote
// manager is its coordinator's to re-lease (package rpcnode;
// lease_expiry_test.go checks the session it recovers).

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

// TestLeaseExpiryOffTrustsExecutors: nothing expires — however long a
// lease stays out, Lease never re-hands its candidate and Waiting is
// false.
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
		t.Fatal("Waiting() true: the engine has nothing to wait for")
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
// shards, the novelty filter, precompute and the explorer's Report. Candidate.Key's
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
			Target:     sessionTarget(),
			Space:      space,
			Algorithm:  "portfolio",
			Shards:     shards,
			Iterations: 300,
			Workers:    2,
			Batch:      8,
			Seen:       explore.NewKeySet([]string{"0:0,0,0", "0:2,1,17"}),
			Explore:    explore.Config{Seed: 4},
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
