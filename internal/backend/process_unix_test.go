//go:build unix

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

// leakyBin is the fixture whose helpers hold its report pipe
// (testdata/leaky); it kills itself with syscall.Kill, so only unix
// builds it.
var leakyBin string

func init() { fixtures["./testdata/leaky"] = &leakyBin }

// TestRunBatchDeathFoldsExactlyOnce: wherever in a batch a worker dies —
// crashed or hung by a scenario, recycled at the end of its life, killed
// from outside while idle — every scenario of the batch is emitted exactly
// once, in order, with the outcome a single Run on a fresh pool gives it.
func TestRunBatchDeathFoldsExactlyOnce(t *testing.T) {
	at := func(planted map[int]Test) []Test { // a benign batch with tests planted at positions
		b := benignBatch()
		for i, ts := range planted {
			b[i] = ts
		}
		return b
	}
	// One arm per write: each padded scenario's arm line fills more than
	// half a group, so a pool whose workers live one group recycles
	// after every scenario of the batch.
	padded := make([]Test, 0, 8)
	for _, ts := range benignBatch() {
		for len(appendPlan(nil, ts.TestID, 1, ts.Plan)) <= armGroupBytes/2 {
			ts.Plan.Faults = append(ts.Plan.Faults, fault("open", 1000+len(ts.Plan.Faults)).Faults...)
		}
		padded = append(padded, ts)
	}
	cases := []struct {
		name       string
		tests      []Test
		shortLived bool
		killIdle   bool
		recycles   int64
		respawn    bool // the batch must leave the pool on a worker it did not start on
	}{
		{name: "crash at 0", tests: at(map[int]Test{0: crashTest}), respawn: true},
		{name: "crash at 3", tests: at(map[int]Test{3: crashTest}), respawn: true},
		{name: "crash at 7", tests: at(map[int]Test{7: crashTest}), respawn: true},
		{name: "hang at 0", tests: at(map[int]Test{0: hangTest}), respawn: true},
		{name: "hang at 3", tests: at(map[int]Test{3: hangTest}), respawn: true},
		{name: "hang at 7", tests: at(map[int]Test{7: hangTest}), respawn: true},
		{name: "crash and hang", tests: at(map[int]Test{2: crashTest, 5: hangTest}), respawn: true},
		{name: "recycled inside the batch", tests: padded, shortLived: true, recycles: 8, respawn: true},
		{name: "killed while idle", tests: benignBatch(), killIdle: true, respawn: true},
		{name: "nothing dies", tests: benignBatch()},
	}

	// The reference: each distinct scenario through a single Run, each on
	// a worker no other scenario has touched.
	ref := warmRunner(t, 1, hangTimeout)
	shortLived(ref)
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
			r := warmRunner(t, 1, hangTimeout)
			if tc.shortLived {
				shortLived(r)
			}
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
			// (A short-lived pool's slot is empty again after that Run.)
			if after := slotPid(r); (after != before) != tc.respawn {
				t.Errorf("pool started on pid %d and that Run left it on pid %d, respawn want %v", before, after, tc.respawn)
			}
		})
	}
}

// TestLeakedReportPipeFoldsByTheExit: a worker that dies on a signal
// while a helper still holds the report pipe's write end folds Crashed,
// with the signal and the crash id it flushed, pipeGrace after the death
// — not Hung after the full timeout — and one that hangs takes the
// helper down with its process group, so the pipe EOFs at the kill. Both
// modes give the same answers.
func TestLeakedReportPipeFoldsByTheExit(t *testing.T) {
	const timeout = 2 * time.Second
	var crash, hang []batchResult
	for _, m := range poolModes {
		t.Run(m.name, func(t *testing.T) {
			r := fixtureRunner(t, leakyBin, 1, m.oneShot, timeout)
			out, ex := r.Run(0, fault("malloc", 1))
			if !out.Injected || !out.Crashed || out.Hung || out.CrashID != "leaky/pipe-held" || ex.ExitStatus != "signal:killed" {
				t.Errorf("crash with the pipe held = %+v (%s), want Crashed, leaky/pipe-held, signal:killed", out, ex.ExitStatus)
			}
			if ex.Duration < pipeGrace || ex.Duration > timeout-200*time.Millisecond {
				t.Errorf("crash with the pipe held folded after %v, want about %v and well inside the %v timeout", ex.Duration, pipeGrace, timeout)
			}
			crash = append(crash, batchResult{out, ex}.comparable())

			out, ex = r.Run(1, fault("malloc", 1))
			if !out.Injected || !out.Hung || out.Crashed || ex.ExitStatus != "timeout" {
				t.Errorf("hang with the pipe held = %+v (%s), want Hung, timeout", out, ex.ExitStatus)
			}
			// Had the kill reached the fixture alone, its helper would have
			// held the pipe for pipeGrace more.
			if ex.Duration < timeout || ex.Duration > timeout+pipeGrace-100*time.Millisecond {
				t.Errorf("hang with the pipe held folded after %v, want the %v timeout and no pipe grace", ex.Duration, timeout)
			}
			hang = append(hang, batchResult{out, ex}.comparable())
		})
	}
	if len(crash) == 2 && (!reflect.DeepEqual(crash[0], crash[1]) || !reflect.DeepEqual(hang[0], hang[1])) {
		t.Errorf("the modes disagree:\n warm     %+v, %+v\n one-shot %+v, %+v", crash[0], hang[0], crash[1], hang[1])
	}
}

// TestPoolModesAgreeOnEveryOutcome: every row of the outcome table —
// passes, orderly failures, faults that fire and faults that cannot, the
// planted crash and the planted hang — folds to the same outcome and
// exit status warm and one-shot.
func TestPoolModesAgreeOnEveryOutcome(t *testing.T) {
	table := append(benignBatch(), crashTest, hangTest)
	var got [][]batchResult
	for _, m := range poolModes {
		r := fixtureRunner(t, crashyBin, 1, m.oneShot, hangTimeout)
		var rows []batchResult
		RunBatch(r, table, func(_ int, out prog.Outcome, ex Exec) {
			rows = append(rows, batchResult{out, ex}.comparable())
		})
		got = append(got, rows)
	}
	for i, ts := range table {
		if !reflect.DeepEqual(got[0][i], got[1][i]) {
			t.Errorf("test %d (%d %v):\n warm     %+v\n one-shot %+v", i, ts.TestID, ts.Plan, got[0][i], got[1][i])
		}
	}
	if hung := got[1][len(table)-1]; !hung.out.Hung || hung.ex.ExitStatus != "timeout" {
		t.Errorf("the planted hang folded %+v (%s) one-shot, want Hung/timeout", hung.out, hung.ex.ExitStatus)
	}
}

// TestCloseWaitsOutInFlightScenarios: in both modes Close returns only
// after the batch that holds a slot has emitted its last outcome — here
// a hang the timeout has to end — and later runs are refused.
func TestCloseWaitsOutInFlightScenarios(t *testing.T) {
	for _, m := range poolModes {
		t.Run(m.name, func(t *testing.T) {
			r := fixtureRunner(t, crashyBin, 2, m.oneShot, hangTimeout)
			started, done := make(chan struct{}), make(chan batchResult, 1)
			go RunBatch(r, []Test{{TestID: 3}, hangTest}, func(i int, out prog.Outcome, ex Exec) {
				if i == 0 {
					close(started)
				} else {
					done <- batchResult{out, ex}
				}
			})
			<-started
			r.Close()
			select {
			case last := <-done:
				if !last.out.Hung {
					t.Errorf("the scenario in flight at Close folded %+v (%s), want Hung", last.out, last.ex.ExitStatus)
				}
			default:
				t.Fatal("Close returned with a scenario still in flight")
			}
			if _, ex := r.Run(3, inject.Plan{}); ex.ExitStatus != "runner-closed" {
				t.Errorf("Run after Close = %s, want runner-closed", ex.ExitStatus)
			}
		})
	}
}
