package shim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// withPlan arms the shim with plan and a report pipe, runs fn, and
// returns the events the shim emitted.
func withPlan(t *testing.T, plan PlanWire, fn func()) []Event {
	t.Helper()
	raw, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(PlanEnv, string(raw))
	t.Setenv(ReportFDEnv, fmt.Sprint(pw.Fd()))
	reset()
	fn()
	pw.Close()
	defer pr.Close()
	defer reset()

	var events []Event
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return events
}

func TestInactiveWithoutPlan(t *testing.T) {
	t.Setenv(PlanEnv, "")
	reset()
	defer reset()
	if Active() {
		t.Fatal("shim active without AFEX_PLAN")
	}
	if _, _, failed := Call("read"); failed {
		t.Fatal("inactive shim failed a call")
	}
	Cover(1)
	Flush() // must not panic or write anywhere
}

func TestCallFiresOnExactCallNumber(t *testing.T) {
	plan := PlanWire{TestID: 2, Faults: []FaultWire{
		{Function: "read", CallNumber: 2, Errno: "EIO", Retval: -1},
	}}
	events := withPlan(t, plan, func() {
		if !Active() || TestID() != 2 {
			t.Errorf("Active=%v TestID=%d, want true/2", Active(), TestID())
		}
		if _, _, failed := Call("read"); failed {
			t.Error("call 1 failed; plan arms call 2")
		}
		if _, _, failed := Call("write"); failed {
			t.Error("other function failed")
		}
		errno, retval, failed := Call("read")
		if !failed || errno != "EIO" || retval != -1 {
			t.Errorf("call 2 = (%q,%d,%v), want (EIO,-1,true)", errno, retval, failed)
		}
		if _, _, failed := Call("read"); failed {
			t.Error("fault fired twice")
		}
		Cover(7)
		Cover(3)
		Cover(7)
		Flush()
	})
	if len(events) != 2 {
		t.Fatalf("got %d events, want inject+blocks", len(events))
	}
	inj := events[0]
	if inj.Kind != EventInject || inj.Function != "read" || inj.Call != 2 {
		t.Errorf("inject event = %+v", inj)
	}
	if len(inj.Stack) == 0 {
		t.Error("inject event carries no stack")
	}
	for _, fr := range inj.Stack {
		if strings.Contains(fr, "shim.Call") {
			t.Errorf("stack leaks shim frame: %v", inj.Stack)
		}
	}
	// Outermost-first ordering: the testing harness frame precedes this
	// test function's closure.
	last := inj.Stack[len(inj.Stack)-1]
	if !strings.Contains(last, "shim_test") && !strings.Contains(last, "TestCallFires") {
		t.Errorf("innermost frame %q is not the call site; stack %v", last, inj.Stack)
	}
	blk := events[1]
	if blk.Kind != EventBlocks || fmt.Sprint(blk.Blocks) != "[3 7]" {
		t.Errorf("blocks event = %+v, want sorted [3 7]", blk)
	}
}

func TestCrashEventPrecedesDeath(t *testing.T) {
	plan := PlanWire{Faults: []FaultWire{{Function: "malloc", CallNumber: 1, Errno: "ENOMEM"}}}
	events := withPlan(t, plan, func() {
		if _, _, failed := Call("malloc"); !failed {
			t.Fatal("armed malloc call did not fail")
		}
		Crash("fixture/unchecked-malloc")
		// No Flush: the process "dies" here; coverage is lost, the
		// inject and crash events are already on the pipe.
	})
	if len(events) != 2 || events[0].Kind != EventInject || events[1].Kind != EventCrash {
		t.Fatalf("events = %+v, want inject then crash", events)
	}
	if events[1].ID != "fixture/unchecked-malloc" {
		t.Errorf("crash id = %q", events[1].ID)
	}
}

func TestMalformedPlanDeactivates(t *testing.T) {
	t.Setenv(PlanEnv, "{not json")
	reset()
	defer reset()
	if Active() {
		t.Fatal("malformed plan armed the shim")
	}
}

// runWorker drives serveLoop over in-memory pipes: arm messages go in,
// the report stream comes out. It returns once the loop exits at arm
// EOF.
func runWorker(t *testing.T, arms []PlanWire, run func(test int) int) []Event {
	t.Helper()
	armR, armW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	repR, repW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(PlanEnv, "")
	t.Setenv(ReportFDEnv, fmt.Sprint(repW.Fd()))
	reset()
	defer reset()
	once.Do(arm)

	go func() {
		enc := json.NewEncoder(armW)
		for _, p := range arms {
			if err := enc.Encode(p); err != nil {
				break
			}
		}
		armW.Close()
	}()
	serveLoop(armR, run)
	armR.Close()
	repW.Close()
	defer repR.Close()

	var events []Event
	sc := bufio.NewScanner(repR)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return events
}

func TestServeLoopRearmsBetweenScenarios(t *testing.T) {
	arms := []PlanWire{
		{TestID: 1, Seq: 1, Faults: []FaultWire{{Function: "read", CallNumber: 1, Errno: "EIO", Retval: -1}}},
		{TestID: 2, Seq: 2}, // fault-free
		{TestID: 1, Seq: 3, Faults: []FaultWire{{Function: "read", CallNumber: 1, Errno: "EIO", Retval: -1}}},
	}
	var tests []int
	events := runWorker(t, arms, func(test int) int {
		tests = append(tests, test)
		Cover(40 + test)
		if _, _, failed := Call("read"); failed {
			return 1
		}
		return 0
	})
	if fmt.Sprint(tests) != "[1 2 1]" {
		t.Fatalf("test ids = %v, want the armed sequence [1 2 1]", tests)
	}
	if len(events) == 0 || events[0].Kind != EventReady {
		t.Fatalf("events %+v do not open with ready", events)
	}
	var dones []Event
	var injects int
	for _, ev := range events[1:] {
		switch ev.Kind {
		case EventDone:
			dones = append(dones, ev)
		case EventInject:
			injects++
		case EventBlocks:
			if len(ev.Blocks) != 1 {
				t.Errorf("blocks %v leaked across scenarios, want exactly one per scenario", ev.Blocks)
			}
		}
	}
	// Scenario 3 re-fires the same callNumber-1 fault scenario 1 fired:
	// the re-arm reset the call counters.
	if injects != 2 {
		t.Fatalf("got %d inject events, want 2 (counters reset between scenarios)", injects)
	}
	if len(dones) != 3 {
		t.Fatalf("got %d done events, want 3", len(dones))
	}
	for i, want := range []struct{ seq, exit int }{{1, 1}, {2, 0}, {3, 1}} {
		if dones[i].Seq != want.seq || dones[i].Exit != want.exit {
			t.Errorf("done %d = seq %d exit %d, want seq %d exit %d",
				i, dones[i].Seq, dones[i].Exit, want.seq, want.exit)
		}
	}
}

func TestServeLoopExitsAtArmEOF(t *testing.T) {
	ran := 0
	events := runWorker(t, nil, func(int) int { ran++; return 0 })
	if ran != 0 {
		t.Fatalf("ran %d scenarios with no arm messages", ran)
	}
	if len(events) != 1 || events[0].Kind != EventReady {
		t.Fatalf("events = %+v, want only ready", events)
	}
}

// TestCallOutlivingItsScenario: a goroutine a scenario left behind may
// still Call while the next arm re-arms the shim; under -race nothing
// Call reads may be written by rearm outside the lock (the active flag
// was, on every arm).
func TestCallOutlivingItsScenario(t *testing.T) {
	t.Setenv(PlanEnv, "")
	t.Setenv(ReportFDEnv, "")
	reset()
	defer reset()
	once.Do(arm)
	var report bytes.Buffer
	st.report = &report
	var arms bytes.Buffer
	for seq := 1; seq <= 200; seq++ {
		fmt.Fprintf(&arms, `{"testID":0,"seq":%d,"faults":[{"function":"read","callNumber":%d,"errno":"EIO","retval":-1}]}`+"\n", seq, 1+seq%3)
	}
	// Each scenario wakes the leftover goroutine and returns without
	// waiting for it, so nothing orders its Calls before the next arm.
	wake, done := make(chan struct{}, 1), make(chan struct{})
	go func() {
		defer close(done)
		for range wake {
			for i := 0; i < 3; i++ {
				Call("read")
			}
		}
	}()
	serveLoop(&arms, func(int) int {
		select {
		case wake <- struct{}{}:
		default:
		}
		return 0
	})
	close(wake)
	<-done
	if !strings.Contains(report.String(), `"inject"`) {
		t.Fatal("the leftover goroutine never injected")
	}
}
