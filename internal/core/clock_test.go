package core

import (
	"sync"
	"testing"
	"time"

	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
)

// fakeClock is the engine's clock in this package's tests: time moves
// only when a test (or its executor) calls Advance, which fires every
// After channel then due. Each After also drops a token on armed, so a
// test can tell that a worker has parked.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []fakeTimer
	armed  chan struct{}
}

type fakeTimer struct {
	at time.Time
	c  chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2011, 4, 10, 0, 0, 0, 0, time.UTC), armed: make(chan struct{}, 1024)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
	} else {
		c.timers = append(c.timers, fakeTimer{at: c.now.Add(d), c: ch})
	}
	select {
	case c.armed <- struct{}{}:
	default:
	}
	return ch
}

// Advance moves the clock on by d and fires every After now due.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.timers[:0]
	for _, t := range c.timers {
		if t.at.After(c.now) {
			kept = append(kept, t)
		} else {
			t.c <- c.now
		}
	}
	c.timers = kept
}

// parkEngine is a lease-expiry session over the 16-point space on clk.
func parkEngine(t *testing.T, clk *fakeClock, cfg Config) *Engine {
	t.Helper()
	cfg.Target, cfg.Space, cfg.Algorithm = sessionTarget(), sessionSpace(), "exhaustive"
	cfg.clock = clk
	eng, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestParkedWorkersDrainALostLease: two workers run every point but the
// one a dead executor holds, then wait — no poll — and re-lease it once
// the clock passes its expiry.
func TestParkedWorkersDrainALostLease(t *testing.T) {
	clk := newFakeClock()
	eng := parkEngine(t, clk, Config{Workers: 2, LeaseTimeout: time.Minute})
	lost := eng.Lease(1)
	ran := make(chan struct{})
	go func() {
		eng.RunWith(eng.LocalExecutor())
		close(ran)
	}()
	// The worker that folds the fifteenth test parks after it.
	for eng.Snapshot().Executed < 15 {
		<-clk.armed
	}
	select {
	case <-ran:
		t.Fatal("the workers quit with a lease outstanding")
	default:
	}
	clk.Advance(time.Minute)
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("the workers never re-leased the expired lease")
	}
	res := eng.Finish()
	if res.Executed != 16 {
		t.Fatalf("executed %d, want the whole 16-point space", res.Executed)
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %s executed twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
	if !seen[lost[0].Point.Key()] {
		t.Fatalf("the lost lease %s was never executed", lost[0].Point.Key())
	}
}

// gatedExecutor holds its first test until release is closed, closing
// started when it gets there.
type gatedExecutor struct {
	inner            Executor
	started, release chan struct{}
	once             sync.Once
}

func (g *gatedExecutor) Execute(c explore.Candidate) (Record, prog.Outcome) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return g.inner.Execute(c)
}

// TestParkedWorkerWakes: a worker parked on another worker's leases,
// with the clock standing still, returns when that worker folds and
// when the session is stopped.
func TestParkedWorkerWakes(t *testing.T) {
	for _, by := range []string{"fold", "stop"} {
		t.Run(by, func(t *testing.T) {
			clk := newFakeClock()
			eng := parkEngine(t, clk, Config{LeaseTimeout: time.Minute})
			gate := &gatedExecutor{inner: eng.LocalExecutor(), started: make(chan struct{}), release: make(chan struct{})}
			holder := make(chan struct{})
			go func() {
				work(eng, eng.cfg.clock, gate, 16, nil)
				close(holder)
			}()
			<-gate.started // the holder has leased the whole space
			parked := make(chan struct{})
			go func() {
				work(eng, eng.cfg.clock, eng.LocalExecutor(), 16, nil)
				close(parked)
			}()
			<-clk.armed
			if by == "stop" {
				eng.Stop()
			} else {
				close(gate.release)
			}
			select {
			case <-parked:
			case <-time.After(10 * time.Second):
				t.Fatalf("a parked worker slept through a %s", by)
			}
			if by == "stop" {
				close(gate.release)
			}
			<-holder
			select {
			case <-eng.Done():
			default:
				t.Fatal("Done still open once the workers returned")
			}
			budgetAtRest(t, eng, "the workers' return")
		})
	}
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
		eng := parkEngine(t, newFakeClock(), Config{Iterations: 4})
		foldAll(t, eng, eng.Lease(8))
		if !closed(eng) {
			t.Fatal("Done open after the fold that spent the budget")
		}
	})
	t.Run("drained", func(t *testing.T) {
		eng := parkEngine(t, newFakeClock(), Config{})
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
		eng := parkEngine(t, newFakeClock(), Config{})
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
		eng := parkEngine(t, newFakeClock(), Config{Stop: func(s Snapshot) bool { return s.Executed >= 2 }})
		foldAll(t, eng, eng.Lease(2))
		if !closed(eng) {
			t.Fatal("Done open after the Stop hook fired")
		}
	})
	t.Run("deadline", func(t *testing.T) {
		clk := newFakeClock()
		eng := parkEngine(t, clk, Config{TimeBudget: time.Second})
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
	eng := parkEngine(t, newFakeClock(), Config{})
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

// TestLeaseFoldCycleAllocatesNothingNew:with nobody parked the wake-up
// is a nil check, so a sequential lease-and-fold cycle allocates what it
// did before the engine had one (12 plain, 14 with lease expiry, which
// books each lease in the heap).
func TestLeaseFoldCycleAllocatesNothingNew(t *testing.T) {
	for _, c := range []struct {
		timeout time.Duration
		allocs  float64
	}{{0, 12}, {time.Minute, 14}} {
		eng, err := NewEngine(Config{
			Target: sessionTarget(),
			Space: faultspace.NewUnion(faultspace.New("s",
				faultspace.IntAxis("testID", 0, 3),
				faultspace.SetAxis("function", "read", "write"),
				faultspace.IntAxis("callNumber", 1, 500),
			)),
			Algorithm:    "exhaustive",
			Iterations:   2000,
			LeaseTimeout: c.timeout,
			clock:        newFakeClock(),
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
		if n > c.allocs {
			t.Errorf("lease timeout %v: a lease and fold allocate %v times, want at most %v", c.timeout, n, c.allocs)
		}
	}
}
