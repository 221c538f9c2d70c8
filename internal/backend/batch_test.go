package backend

import (
	"fmt"
	"reflect"
	"syscall"
	"testing"
	"time"

	"afex/internal/inject"
	"afex/internal/prog"
)

// hangTimeout is the per-scenario cap of the pools below: what the
// planted hang costs wherever it sits in a batch.
const hangTimeout = 300 * time.Millisecond

var (
	crashTest = Test{TestID: 1, Plan: fault("malloc", 1)} // kills its worker on a signal
	hangTest  = Test{TestID: 2, Plan: fault("write", 1)}  // blocks until the supervisor kills it
)

// benignBatch is eight scenarios that leave their worker alive: passes,
// orderly failures, faults that fire and faults that cannot.
func benignBatch() []Test {
	return []Test{
		{TestID: 3},
		{TestID: 0, Plan: fault("open", 1)},
		{TestID: 1, Plan: fault("malloc", 2)},
		{TestID: 2, Plan: fault("write", 2)},
		{TestID: 0, Plan: fault("read", 2)},
		{TestID: 3, Plan: fault("read", 1)},
		{TestID: 1, Plan: fault("open", 1)},
		{TestID: 0},
	}
}

type batchResult struct {
	out prog.Outcome
	ex  Exec
}

// comparable strips the wall clock, the one field two executions of a
// scenario legitimately differ in.
func (r batchResult) comparable() batchResult {
	r.ex.Duration = 0
	return r
}

// slotPid peeks at the single slot of a Procs: 1 pool: the pid of the
// worker it holds, 0 when empty.
func slotPid(p *workerRunner) int {
	w := <-p.slots
	defer func() { p.slots <- w }()
	if w == nil {
		return 0
	}
	return w.cmd.Process.Pid
}

// TestRunBatchDeathFoldsExactlyOnce: wherever in a batch a worker dies —
// crashed or hung by a scenario, recycled at its quota, killed from
// outside while idle — every scenario of the batch is emitted exactly
// once, in order, with the outcome a single Run on a fresh pool gives it.
func TestRunBatchDeathFoldsExactlyOnce(t *testing.T) {
	at := func(planted map[int]Test) []Test { // a benign batch with tests planted at positions
		b := benignBatch()
		for i, ts := range planted {
			b[i] = ts
		}
		return b
	}
	cases := []struct {
		name     string
		tests    []Test
		tpp      int
		killIdle bool
		recycles int64
		respawn  bool // the batch must leave the pool on a worker it did not start on
	}{
		{name: "crash at 0", tests: at(map[int]Test{0: crashTest}), respawn: true},
		{name: "crash at 3", tests: at(map[int]Test{3: crashTest}), respawn: true},
		{name: "crash at 7", tests: at(map[int]Test{7: crashTest}), respawn: true},
		{name: "hang at 0", tests: at(map[int]Test{0: hangTest}), respawn: true},
		{name: "hang at 3", tests: at(map[int]Test{3: hangTest}), respawn: true},
		{name: "hang at 7", tests: at(map[int]Test{7: hangTest}), respawn: true},
		{name: "crash and hang", tests: at(map[int]Test{2: crashTest, 5: hangTest}), respawn: true},
		{name: "quota inside the batch", tests: benignBatch(), tpp: 3, recycles: 2, respawn: true},
		{name: "killed while idle", tests: benignBatch(), killIdle: true, respawn: true},
		{name: "nothing dies", tests: benignBatch()},
	}

	// The reference: each distinct scenario through a single Run, each on
	// a worker no other scenario has touched.
	ref := warmRunner(t, 1, 1, hangTimeout)
	single := map[string]batchResult{}
	want := func(ts Test) batchResult {
		key := fmt.Sprintf("%d %v", ts.TestID, ts.Plan)
		if _, ok := single[key]; !ok {
			out, ex := ref.Run(ts.TestID, ts.Plan)
			single[key] = batchResult{out, ex}
		}
		return single[key]
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := warmRunner(t, 1, tc.tpp, hangTimeout)
			before := slotPid(r)
			if before == 0 {
				t.Fatal("the pool came up without its probe worker")
			}
			if tc.killIdle {
				if err := syscall.Kill(before, syscall.SIGKILL); err != nil {
					t.Fatal(err)
				}
				// Wait the death out, so the batch finds a dead worker and not
				// one about to die under its first scenario.
				w := <-r.slots
				w.wait <- <-w.wait
				r.slots <- w
			}
			got := make([]batchResult, 0, len(tc.tests))
			r.RunBatch(tc.tests, func(i int, out prog.Outcome, ex Exec) {
				if i != len(got) {
					t.Errorf("emitted index %d after %d results, want each index once and in order", i, len(got))
				}
				got = append(got, batchResult{out, ex})
			})
			if len(got) != len(tc.tests) {
				t.Fatalf("emitted %d outcomes for %d tests", len(got), len(tc.tests))
			}
			for i, ts := range tc.tests {
				if w := want(ts); !reflect.DeepEqual(got[i].comparable(), w.comparable()) {
					t.Errorf("test %d (%d %v) in the batch:\n got %+v\nwant %+v (a single Run)", i, ts.TestID, ts.Plan, got[i], w)
				}
				switch {
				case reflect.DeepEqual(ts, crashTest):
					if !got[i].out.Crashed || got[i].out.CrashID != "crashy/unchecked-malloc" {
						t.Errorf("test %d: crash folded as %+v, want Crashed with the shim's label", i, got[i].out)
					}
				case reflect.DeepEqual(ts, hangTest):
					// Its own timeout, not the age of the batch it was queued in.
					if d := got[i].ex.Duration; !got[i].out.Hung || d < hangTimeout || d > 2*hangTimeout {
						t.Errorf("test %d: hang folded as %+v after %v, want Hung after about %v", i, got[i].out, d, hangTimeout)
					}
				}
			}
			if n := r.Recycles(); n != tc.recycles {
				t.Errorf("Recycles() = %d, want %d", n, tc.recycles)
			}
			if out, ex := r.Run(3, inject.Plan{}); out.Failed || ex.ExitStatus != "exit:0" {
				t.Fatalf("Run after the batch = %+v (%s), want a clean pass", out, ex.ExitStatus)
			}
			// (An empty slot: that Run was the last of its worker's quota.)
			if after := slotPid(r); (after != before) != tc.respawn {
				t.Errorf("pool started on pid %d and that Run left it on pid %d, respawn want %v", before, after, tc.respawn)
			}
		})
	}
}

// TestRunBatchFallsBackToRun: a runner without a batch entry is looped,
// under the same emit contract.
func TestRunBatchFallsBackToRun(t *testing.T) {
	spec, err := ParseSpec("cmd:" + crashyBin + " {test}")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(Process, Config{Command: spec, Timeout: 5 * time.Second, Procs: 1, TestsPerProc: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if _, ok := cold.(Batcher); ok {
		t.Fatal("the cold runner grew a batch entry; this test needs a runner without one")
	}
	tests := benignBatch()[:3]
	var got []string
	RunBatch(cold, tests, func(i int, out prog.Outcome, ex Exec) {
		got = append(got, fmt.Sprintf("%d %s %v", i, ex.ExitStatus, out.Injected))
	})
	if want := []string{"0 exit:0 false", "1 exit:1 true", "2 exit:1 true"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("looped batch emitted %v, want %v", got, want)
	}
}
