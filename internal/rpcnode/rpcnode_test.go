package rpcnode

import (
	"sync"
	"testing"

	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
)

// newCoordinator is NewCoordinatorConfig over a bare space and budget.
func newCoordinator(tb testing.TB, space *faultspace.Union, ex explore.Explorer, budget int, impact func(prog.Outcome, int) float64) *Coordinator {
	tb.Helper()
	c, err := NewCoordinatorConfig(core.Config{Space: space, Iterations: budget}, ex, impact)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func rpcTarget() *prog.Program {
	p := &prog.Program{
		Name: "rpc",
		Routines: map[string]*prog.Routine{
			"r": {Name: "r", Module: "m", Ops: []prog.Op{
				{Func: "read", Repeat: 2, OnError: prog.Propagate, Block: 1, RecoveryBlock: 2},
				{Func: "write", OnError: prog.UncheckedCrash, Block: 3, CrashID: "rpc-crash"},
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

func rpcSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 1),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 1, 2),
	))
}

func TestDistributedSessionEndToEnd(t *testing.T) {
	space := rpcSpace()
	ex := explore.NewExhaustive(space)
	coord := newCoordinator(t, space, ex, 0, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	target := rpcTarget()
	var wg sync.WaitGroup
	executed := make([]int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mgr, err := Dial(srv.Addr(), "m", target)
			if err != nil {
				t.Error(err)
				return
			}
			defer mgr.Close()
			n, err := mgr.RunUntilDone()
			if err != nil {
				t.Error(err)
			}
			executed[id] = n
		}(i)
	}
	wg.Wait()

	st := coord.Snapshot()
	if int64(st.Executed) != space.Size() {
		t.Fatalf("executed %d, want the whole %d-point space", st.Executed, space.Size())
	}
	total := 0
	for _, n := range executed {
		total += n
	}
	if total != st.Executed {
		t.Errorf("managers report %d executions, coordinator %d", total, st.Executed)
	}
	// Ground truth: read fires at calls 1,2 for both tests and always
	// fails (4 failures); write fires at call 1 for both tests and
	// crashes (2 crashes, also failures). write@2 never fires.
	if st.Failed != 6 || st.Crashed != 2 || st.Injected != 6 {
		t.Errorf("stats = %+v, want failed=6 crashed=2 injected=6", st)
	}
}

func TestBudgetRespected(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 3, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := Dial(srv.Addr(), "solo", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || coord.Snapshot().Executed != 3 {
		t.Errorf("executed %d / %d, want 3", n, coord.Snapshot().Executed)
	}
}

func TestStopEndsSession(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord.Engine().Stop()
	mgr, err := Dial(srv.Addr(), "late", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	n, err := mgr.RunUntilDone()
	if err != nil || n != 0 {
		t.Errorf("stopped coordinator handed out %d tests (err %v)", n, err)
	}
}

func TestCustomImpactUsed(t *testing.T) {
	space := rpcSpace()
	var got []float64
	var mu sync.Mutex
	impact := func(out prog.Outcome, newBlocks int) float64 {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, 42)
		return 42
	}
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 2, impact)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := Dial(srv.Addr(), "x", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if _, err := mgr.RunUntilDone(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("impact fn called %d times, want 2", len(got))
	}
}

func TestPerManagerAccounting(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 4, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := Dial(srv.Addr(), "alice", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if _, err := mgr.RunUntilDone(); err != nil {
		t.Fatal(err)
	}
	if coord.Snapshot().PerManager["alice"] != 4 {
		t.Errorf("per-manager = %v", coord.Snapshot().PerManager)
	}
}
