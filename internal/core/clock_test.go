package core

import (
	"sync"
	"testing"
	"time"

	"afex/internal/explore"
	"afex/internal/faultspace"
)

// fakeClock is the engine's clock in this package's tests: time moves
// only when a test (or its executor) calls Advance.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2011, 4, 10, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock on by d.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// clockEngine is a session over the 16-point space on clk.
func clockEngine(t *testing.T, clk *fakeClock, cfg Config) *Engine {
	t.Helper()
	cfg.Target, cfg.Space, cfg.Algorithm = sessionTarget(), sessionSpace(), "exhaustive"
	cfg.clock = clk
	eng, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestDoneClosesOnceNothingIsOwed: Done closes at the fold that spends
// the budget, at the last fold after the explorer ran dry, and on Stop
// from the caller or the Stop hook — and never while a budgeted or
// drained session still has a fold pending.
func TestDoneClosesOnceNothingIsOwed(t *testing.T) {
	closed := func(eng *Engine) bool {
		select {
		case <-eng.Done():
			return true
		default:
			return false
		}
	}
	foldAll := func(t *testing.T, eng *Engine, cands []explore.Candidate) {
		exec := eng.LocalExecutor()
		for i, c := range cands {
			if closed(eng) {
				t.Fatalf("Done closed with %d folds pending", len(cands)-i)
			}
			rec, out := exec.Execute(c)
			eng.Fold(c, rec, out)
		}
	}
	t.Run("budget", func(t *testing.T) {
		eng := clockEngine(t, newFakeClock(), Config{Iterations: 4})
		foldAll(t, eng, eng.Lease(8))
		if !closed(eng) {
			t.Fatal("Done open after the fold that spent the budget")
		}
	})
	t.Run("drained", func(t *testing.T) {
		eng := clockEngine(t, newFakeClock(), Config{})
		cands := eng.Lease(16)
		foldAll(t, eng, cands[:15])
		if more := eng.Lease(1); len(more) != 0 {
			t.Fatalf("a drained space handed out %d more", len(more))
		}
		foldAll(t, eng, cands[15:])
		if !closed(eng) {
			t.Fatal("Done open after the last fold of a drained space")
		}
	})
	t.Run("stop", func(t *testing.T) {
		eng := clockEngine(t, newFakeClock(), Config{})
		foldAll(t, eng, eng.Lease(2))
		if closed(eng) {
			t.Fatal("Done closed with the space unexplored")
		}
		eng.Stop()
		if !closed(eng) {
			t.Fatal("Done open after Stop")
		}
	})
	t.Run("stop hook", func(t *testing.T) {
		eng := clockEngine(t, newFakeClock(), Config{Stop: func(s Snapshot) bool { return s.Executed >= 2 }})
		foldAll(t, eng, eng.Lease(2))
		if !closed(eng) {
			t.Fatal("Done open after the Stop hook fired")
		}
	})
	t.Run("deadline", func(t *testing.T) {
		clk := newFakeClock()
		eng := clockEngine(t, clk, Config{TimeBudget: time.Second})
		foldAll(t, eng, eng.Lease(2))
		clk.Advance(time.Second)
		if eng.Lease(1) != nil || !closed(eng) {
			t.Fatal("a lease past the deadline left Done open")
		}
	})
}

// TestFoldAfterFinishIsDropped: a coordinator seals once its engine is
// done, possibly with a remote report still on the wire; that report
// must not change the result already handed out.
func TestFoldAfterFinishIsDropped(t *testing.T) {
	eng := clockEngine(t, newFakeClock(), Config{})
	cands := eng.Lease(2)
	eng.Stop()
	res := eng.Finish()
	exec := eng.LocalExecutor()
	rec, out := exec.Execute(cands[0])
	eng.Fold(cands[0], rec, out)
	if res.Executed != 0 || len(res.Records) != 0 {
		t.Fatalf("a fold after Finish changed the sealed result: %d executed, %d records", res.Executed, len(res.Records))
	}
}

// TestLeaseFoldCycleAllocatesNothingNew: a sequential lease-and-fold
// cycle allocates what it did before the engine had a clock and a seal.
func TestLeaseFoldCycleAllocatesNothingNew(t *testing.T) {
	eng, err := NewEngine(Config{
		Target: sessionTarget(),
		Space: faultspace.NewUnion(faultspace.New("s",
			faultspace.IntAxis("testID", 0, 3),
			faultspace.SetAxis("function", "read", "write"),
			faultspace.IntAxis("callNumber", 1, 500),
		)),
		Algorithm:  "exhaustive",
		Iterations: 2000,
		clock:      newFakeClock(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := eng.LocalExecutor()
	batch := make([]ExecutedTest, 1)
	n := testing.AllocsPerRun(500, func() {
		cand := eng.Lease(1)[0]
		rec, out := exec.Execute(cand)
		batch[0] = ExecutedTest{C: cand, Rec: rec, Out: out}
		eng.FoldBatch(batch)
	})
	if n > 12 {
		t.Errorf("a lease and fold allocate %v times, want at most 12", n)
	}
}
