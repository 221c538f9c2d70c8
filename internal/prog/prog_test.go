package prog

import (
	"strings"
	"testing"

	"afex/internal/inject"
	"afex/internal/libc"
)

// oneOpProgram builds a program with a single routine holding one
// libc-calling op with the given behaviour, and one test invoking it.
func oneOpProgram(b Behavior) *Program {
	p := &Program{
		Name: "tiny",
		Routines: map[string]*Routine{
			"r": {Name: "r", Module: "m", Ops: []Op{
				{Func: "read", OnError: b, Block: 1, RecoveryBlock: 2, CrashID: "tiny-crash"},
				{Func: "write", OnError: Tolerate, Block: 3},
			}},
		},
		TestSuite: []Test{{Name: "t0", Script: []string{"r"}}},
		NumBlocks: 3,
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func failRead(n int) inject.Plan {
	return inject.Single(inject.Fault{Function: "read", CallNumber: n, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}})
}

func TestBehaviorOutcomes(t *testing.T) {
	cases := []struct {
		b         Behavior
		failed    bool
		crashed   bool
		hung      bool
		continues bool // whether the op after the failing one executes
		recovery  bool // whether the recovery block is covered
	}{
		{Tolerate, false, false, false, true, false},
		{UncheckedSilent, false, false, false, true, false},
		{Propagate, true, false, false, false, true},
		{CleanRecovery, true, false, false, false, true},
		{BuggyRecovery, true, true, false, false, true},
		{RecoveredThenCrash, true, true, false, false, true},
		{UncheckedCrash, true, true, false, false, false},
		{AbortOnError, true, true, false, false, true},
		{HangOnError, true, false, true, false, false},
		{ExitOnError, true, false, false, false, true},
	}
	for _, c := range cases {
		t.Run(c.b.String(), func(t *testing.T) {
			p := oneOpProgram(c.b)
			out := Run(p, 0, failRead(1))
			if !out.Injected {
				t.Fatal("fault did not fire")
			}
			if out.Failed != c.failed || out.Crashed != c.crashed || out.Hung != c.hung {
				t.Fatalf("outcome = %+v, want failed=%v crashed=%v hung=%v", out, c.failed, c.crashed, c.hung)
			}
			_, laterCovered := out.Blocks[3]
			if laterCovered != c.continues {
				t.Errorf("continuation: block 3 covered=%v, want %v", laterCovered, c.continues)
			}
			_, recCovered := out.Blocks[2]
			if recCovered != c.recovery {
				t.Errorf("recovery block covered=%v, want %v", recCovered, c.recovery)
			}
			if c.crashed && out.CrashID != "tiny-crash" {
				t.Errorf("CrashID = %q", out.CrashID)
			}
		})
	}
}

func TestNoInjectionCleanRun(t *testing.T) {
	p := oneOpProgram(Propagate)
	out := Run(p, 0, inject.Plan{})
	if out.Injected || out.Failed || out.Crashed || out.Hung {
		t.Fatalf("clean run misbehaved: %+v", out)
	}
	if len(out.Blocks) != 2 { // blocks 1 and 3; recovery block 2 untouched
		t.Errorf("blocks covered = %v", out.Blocks)
	}
	if out.Coverage(p) < 0.66 || out.Coverage(p) > 0.67 {
		t.Errorf("coverage = %v, want 2/3", out.Coverage(p))
	}
}

func TestRetrySucceedsOnSecondCall(t *testing.T) {
	p := oneOpProgram(Retry)
	out := Run(p, 0, failRead(1))
	if !out.Injected {
		t.Fatal("fault did not fire")
	}
	if out.Failed {
		t.Fatalf("retried call should succeed: %+v", out)
	}
	if _, ok := out.Blocks[3]; !ok {
		t.Error("execution did not continue after successful retry")
	}
}

func TestRetryBothCallsFailPropagates(t *testing.T) {
	p := oneOpProgram(Retry)
	plan := inject.Plan{Faults: []inject.Fault{
		{Function: "read", CallNumber: 1, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}},
		{Function: "read", CallNumber: 2, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}},
	}}
	out := Run(p, 0, plan)
	if !out.Failed || out.Crashed {
		t.Fatalf("double failure should propagate cleanly: %+v", out)
	}
}

func TestInjectionStackCaptured(t *testing.T) {
	p := &Program{
		Name: "stacked",
		Routines: map[string]*Routine{
			"outer": {Name: "outer", Module: "mod", Ops: []Op{
				{Callee: "inner", OnError: Propagate, Block: 1},
			}},
			"inner": {Name: "inner", Module: "mod", Ops: []Op{
				{Func: "read", OnError: Propagate, Block: 2, RecoveryBlock: 3},
			}},
		},
		TestSuite: []Test{{Name: "t", Script: []string{"outer"}}},
		NumBlocks: 3,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := Run(p, 0, failRead(1))
	if len(out.InjectionStack) != 3 {
		t.Fatalf("stack = %v, want 3 frames (outer, inner, callsite)", out.InjectionStack)
	}
	if out.InjectionStack[0] != "mod!outer" || out.InjectionStack[1] != "mod!inner" {
		t.Errorf("stack frames = %v", out.InjectionStack)
	}
	if !strings.HasPrefix(out.InjectionStack[2], "read:") {
		t.Errorf("leaf frame = %q", out.InjectionStack[2])
	}
}

func TestRepeatOpCallNumbers(t *testing.T) {
	p := &Program{
		Name: "loopy",
		Routines: map[string]*Routine{
			"r": {Name: "r", Module: "m", Ops: []Op{
				{Func: "write", Repeat: 4, OnError: Propagate, Block: 1, RecoveryBlock: 2},
			}},
		},
		TestSuite: []Test{{Name: "t", Script: []string{"r"}}},
		NumBlocks: 2,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Any of the four call numbers fails the op.
	for n := 1; n <= 4; n++ {
		plan := inject.Single(inject.Fault{Function: "write", CallNumber: n, Err: libc.ErrorReturn{Retval: -1, Errno: "ENOSPC"}})
		out := Run(p, 0, plan)
		if !out.Injected || !out.Failed {
			t.Errorf("call %d: outcome %+v", n, out)
		}
	}
	// Call number 5 does not exist.
	out := Run(p, 0, inject.Single(inject.Fault{Function: "write", CallNumber: 5, Err: libc.ErrorReturn{Retval: -1}}))
	if out.Injected || out.Failed {
		t.Errorf("call 5 fired: %+v", out)
	}
}

func TestScriptStopsAtFirstFailure(t *testing.T) {
	p := &Program{
		Name: "script",
		Routines: map[string]*Routine{
			"a": {Name: "a", Module: "m", Ops: []Op{{Func: "read", OnError: Propagate, Block: 1}}},
			"b": {Name: "b", Module: "m", Ops: []Op{{Func: "write", OnError: Tolerate, Block: 2}}},
		},
		TestSuite: []Test{{Name: "t", Script: []string{"a", "b"}}},
		NumBlocks: 2,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := Run(p, 0, failRead(1))
	if !out.Failed {
		t.Fatal("test should fail")
	}
	if _, ok := out.Blocks[2]; ok {
		t.Error("script continued past a failing step")
	}
}

func TestCalleeCrashPropagatesThroughCallers(t *testing.T) {
	p := &Program{
		Name: "crashprop",
		Routines: map[string]*Routine{
			"top": {Name: "top", Module: "m", Ops: []Op{
				{Callee: "mid", OnError: UncheckedSilent, Block: 1},
				{Func: "write", OnError: Tolerate, Block: 2},
			}},
			"mid": {Name: "mid", Module: "m", Ops: []Op{
				{Func: "read", OnError: UncheckedCrash, Block: 3, CrashID: "boom"},
			}},
		},
		TestSuite: []Test{{Name: "t", Script: []string{"top"}}},
		NumBlocks: 3,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := Run(p, 0, failRead(1))
	if !out.Crashed || out.CrashID != "boom" {
		t.Fatalf("crash did not propagate: %+v", out)
	}
	if _, ok := out.Blocks[2]; ok {
		t.Error("execution continued after a crash")
	}
}

func TestUncheckedSilentCalleeErrorIgnored(t *testing.T) {
	p := &Program{
		Name: "ignore",
		Routines: map[string]*Routine{
			"top": {Name: "top", Module: "m", Ops: []Op{
				{Callee: "mid", OnError: UncheckedSilent, Block: 1},
				{Func: "write", OnError: Tolerate, Block: 2},
			}},
			"mid": {Name: "mid", Module: "m", Ops: []Op{
				{Func: "read", OnError: Propagate, Block: 3},
			}},
		},
		TestSuite: []Test{{Name: "t", Script: []string{"top"}}},
		NumBlocks: 3,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := Run(p, 0, failRead(1))
	if out.Failed {
		t.Fatalf("ignored callee error still failed the test: %+v", out)
	}
	if _, ok := out.Blocks[2]; !ok {
		t.Error("execution did not continue after ignored error")
	}
}

func TestOutOfRangeTestID(t *testing.T) {
	p := oneOpProgram(Tolerate)
	if out := Run(p, -1, inject.Plan{}); !out.Failed {
		t.Error("negative testID should fail")
	}
	if out := Run(p, 99, inject.Plan{}); !out.Failed {
		t.Error("testID beyond suite should fail")
	}
}

func TestDeterminism(t *testing.T) {
	p := oneOpProgram(CleanRecovery)
	a := Run(p, 0, failRead(1))
	b := Run(p, 0, failRead(1))
	if a.Failed != b.Failed || a.Crashed != b.Crashed || len(a.Blocks) != len(b.Blocks) ||
		strings.Join(a.InjectionStack, "|") != strings.Join(b.InjectionStack, "|") {
		t.Error("identical runs diverged; the model must be deterministic")
	}
}

func TestValidateCatchesBrokenPrograms(t *testing.T) {
	base := func() *Program {
		return &Program{
			Name: "v",
			Routines: map[string]*Routine{
				"r": {Name: "r", Module: "m", Ops: []Op{{Func: "read", Block: 1}}},
			},
			TestSuite: []Test{{Name: "t", Script: []string{"r"}}},
			NumBlocks: 1,
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	cases := []struct {
		name   string
		break_ func(*Program)
	}{
		{"unknown libc func", func(p *Program) { p.Routines["r"].Ops[0].Func = "bogus" }},
		{"unknown callee", func(p *Program) { p.Routines["r"].Ops[0] = Op{Callee: "ghost", Block: 1} }},
		{"both func and callee", func(p *Program) { p.Routines["r"].Ops[0].Callee = "r" }},
		{"neither func nor callee", func(p *Program) { p.Routines["r"].Ops[0].Func = "" }},
		{"block out of range", func(p *Program) { p.Routines["r"].Ops[0].Block = 99 }},
		{"unknown script routine", func(p *Program) { p.TestSuite[0].Script = []string{"ghost"} }},
		{"mismatched map key", func(p *Program) { p.Routines["other"] = p.Routines["r"] }},
	}
	for _, c := range cases {
		p := base()
		c.break_(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken program", c.name)
		}
	}
}

func TestRecursionDepthPanics(t *testing.T) {
	p := &Program{
		Name: "cyclic",
		Routines: map[string]*Routine{
			"a": {Name: "a", Module: "m", Ops: []Op{{Callee: "b", Block: 1}}},
			"b": {Name: "b", Module: "m", Ops: []Op{{Callee: "a", Block: 2}}},
		},
		TestSuite: []Test{{Name: "t", Script: []string{"a"}}},
		NumBlocks: 2,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on routine cycle")
		}
	}()
	Run(p, 0, inject.Plan{})
}

func TestOnlyAfterErrorSkippedOnCleanPath(t *testing.T) {
	p := &Program{
		Name: "recpath",
		Routines: map[string]*Routine{
			"r": {Name: "r", Module: "m", Ops: []Op{
				{Func: "fsync", OnError: Tolerate, Block: 1},
				{Func: "malloc", OnlyAfterError: true, OnError: UncheckedCrash, Block: 2, CrashID: "rec-oom"},
				{Func: "write", OnError: Tolerate, Block: 3},
			}},
		},
		TestSuite: []Test{{Name: "t", Script: []string{"r"}}},
		NumBlocks: 3,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Clean run: the recovery-path op never executes.
	out := Run(p, 0, inject.Plan{})
	if _, ok := out.Blocks[2]; ok {
		t.Error("recovery-path op executed on the clean path")
	}
	// Failing only malloc does nothing — the op is never reached.
	out = Run(p, 0, inject.Single(inject.Fault{Function: "malloc", CallNumber: 1, Err: libc.ErrorReturn{Retval: 0, Errno: "ENOMEM"}}))
	if out.Injected || out.Failed {
		t.Errorf("single malloc fault reached the recovery path: %+v", out)
	}
	// fsync fault alone: recovery path runs, allocation succeeds.
	out = Run(p, 0, inject.Single(inject.Fault{Function: "fsync", CallNumber: 1, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}}))
	if out.Failed {
		t.Errorf("tolerated fsync fault failed the test: %+v", out)
	}
	if _, ok := out.Blocks[2]; !ok {
		t.Error("recovery-path op did not run after the error")
	}
	// Both faults: the classic fault-on-the-recovery-path crash.
	out = Run(p, 0, inject.Plan{Faults: []inject.Fault{
		{Function: "fsync", CallNumber: 1, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}},
		{Function: "malloc", CallNumber: 1, Err: libc.ErrorReturn{Retval: 0, Errno: "ENOMEM"}},
	}})
	if !out.Crashed || out.CrashID != "rec-oom" {
		t.Errorf("pair did not trigger the recovery-path crash: %+v", out)
	}
}

// TestErrnoBehaviorSwitch models read handling that retries EINTR but
// propagates EIO — the same callsite, different outcomes per errno, which
// is what makes the errno axis worth exploring.
func TestErrnoBehaviorSwitch(t *testing.T) {
	p := &Program{
		Name: "errno",
		Routines: map[string]*Routine{
			"r": {Name: "r", Module: "m", Ops: []Op{
				{Func: "read", OnError: Propagate, Block: 1, RecoveryBlock: 2,
					ErrnoBehavior: map[string]Behavior{"EINTR": Retry}},
				{Func: "write", OnError: Tolerate, Block: 3},
			}},
		},
		TestSuite: []Test{{Name: "t", Script: []string{"r"}}},
		NumBlocks: 3,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	eintr := inject.Single(inject.Fault{Function: "read", CallNumber: 1, Err: libc.ErrorReturn{Retval: -1, Errno: "EINTR"}})
	out := Run(p, 0, eintr)
	if out.Failed {
		t.Errorf("EINTR should be retried and absorbed: %+v", out)
	}
	eio := inject.Single(inject.Fault{Function: "read", CallNumber: 1, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}})
	out = Run(p, 0, eio)
	if !out.Failed || out.Crashed {
		t.Errorf("EIO should propagate cleanly: %+v", out)
	}
}

func TestRecoveryBlocksAndFunctionsUsed(t *testing.T) {
	p := oneOpProgram(CleanRecovery)
	if got := len(p.RecoveryBlocks()); got != 1 {
		t.Errorf("RecoveryBlocks = %d, want 1", got)
	}
	funcs := p.FunctionsUsed()
	if len(funcs) != 2 || funcs[0] != "read" || funcs[1] != "write" {
		t.Errorf("FunctionsUsed = %v", funcs)
	}
}
