package backend

import (
	"fmt"
	"reflect"
	"testing"
	"time"

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

// TestRunBatchFallsBackToRun: a runner without a batch entry is looped,
// under the same emit contract.
func TestRunBatchFallsBackToRun(t *testing.T) {
	model, err := New(Model, Config{Target: tinyModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close()
	if _, ok := model.(Batcher); ok {
		t.Fatal("the model runner grew a batch entry; this test needs a runner without one")
	}
	tests := []Test{{}, {Plan: fault("read", 1)}, {Plan: fault("read", 2)}}
	var got []string
	RunBatch(model, tests, func(i int, out prog.Outcome, ex Exec) {
		got = append(got, fmt.Sprintf("%d %v %v", i, out.Failed, out.Injected))
	})
	if want := []string{"0 false false", "1 true true", "2 false false"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("looped batch emitted %v, want %v", got, want)
	}
}
