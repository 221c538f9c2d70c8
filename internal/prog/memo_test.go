package prog

import (
	"reflect"
	"testing"

	"afex/internal/inject"
)

// loopProgram has one test that invokes the same routine n times; every
// failure is tolerated, so a run always walks the whole script and the
// blocks it covers do not depend on n.
func loopProgram(n int) *Program {
	script := make([]string, n)
	for i := range script {
		script[i] = "r"
	}
	return &Program{
		Name: "loop",
		Routines: map[string]*Routine{
			"r": {Name: "r", Module: "m", Ops: []Op{
				{Func: "read", Repeat: 3, OnError: Tolerate, Block: 1},
				{Callee: "s", OnError: Tolerate, Block: 2},
			}},
			"s": {Name: "s", Module: "m", Ops: []Op{{Func: "write", OnError: Tolerate, Block: 3}}},
		},
		TestSuite: []Test{{Name: "t", Script: script}},
		NumBlocks: 3,
	}
}

// TestRunAllocations pins what a Run costs the allocator: nothing when
// the plan cannot fire, and when it fires only the injection stack's
// copy, however long the test is — the machine's scratch (armed faults,
// call counters, coverage bitset, stack) is reused from run to run, and
// a covered set the program has produced before is not built again.
func TestRunAllocations(t *testing.T) {
	short, long := loopProgram(2), loopProgram(400)
	miss, hit := failRead(3*400+1), failRead(2)
	Run(short, 0, miss) // compile and fill the memo off the meter
	Run(long, 0, miss)

	if n := testing.AllocsPerRun(100, func() { Run(long, 0, miss) }); n != 0 {
		t.Errorf("a plan that cannot fire cost %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { Run(long, 0, inject.Plan{}) }); n != 0 {
		t.Errorf("the empty plan cost %v allocations, want 0", n)
	}
	// sync.Pool drops machines at random under the race detector.
	if !raceEnabled {
		onShort := testing.AllocsPerRun(100, func() { Run(short, 0, hit) })
		onLong := testing.AllocsPerRun(100, func() { Run(long, 0, hit) })
		if onShort != 1 || onLong != 1 {
			t.Errorf("a firing run cost %v allocations on a 2-step test and %v on a 400-step one, want 1 (the stack copy)", onShort, onLong)
		}
	}
	if out := Run(long, 0, hit); !out.Injected || out.OpsExecuted != 3*400 {
		t.Fatalf("the firing plan did not walk the whole test: %+v", out)
	}
}

// TestMemoIsShared: plans that cannot fire all return the one memoised
// outcome, Blocks map included; a plan that fires is run, and shares the
// map of every run that covered the same set — here its own second run,
// and the fault-free run too, since failing the ninth read skips nothing.
func TestMemoIsShared(t *testing.T) {
	p := loopProgram(3)
	clean, _ := p.FaultFree(0)
	for _, plan := range []inject.Plan{{}, failRead(0), failRead(10), {Faults: []inject.Fault{{Function: "frobnicate", CallNumber: 1}}}} {
		out := Run(p, 0, plan)
		if !reflect.DeepEqual(out, clean) || reflect.ValueOf(out.Blocks).Pointer() != reflect.ValueOf(clean.Blocks).Pointer() {
			t.Errorf("plan %q: not the memoised outcome: %+v", plan, out)
		}
	}
	fired, again := Run(p, 0, failRead(9)), Run(p, 0, failRead(9))
	if want, _ := ReferenceRun(p, 0, failRead(9)); !fired.Injected || !reflect.DeepEqual(fired, want) {
		t.Errorf("a firing run is not the reference's: %+v, want %+v", fired, want)
	}
	for _, other := range []Outcome{again, clean} {
		if reflect.ValueOf(fired.Blocks).Pointer() != reflect.ValueOf(other.Blocks).Pointer() {
			t.Errorf("runs that covered the same set must share one Blocks map: %+v and %+v", fired, other)
		}
	}
	if again, _ := p.FaultFree(0); !reflect.DeepEqual(again, clean) {
		t.Errorf("the memo changed: %+v, was %+v", again, clean)
	}
}
