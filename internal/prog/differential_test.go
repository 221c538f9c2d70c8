package prog_test

// The differential oracle: prog.Run (compiled interpreter + fault-free
// memo) against the tree-walking interpreter it replaced, which lives on
// in reference_test.go.

import (
	"fmt"
	"reflect"
	"testing"

	"afex/internal/inject"
	"afex/internal/libc"
	"afex/internal/prog"
	"afex/internal/targets"
	"afex/internal/xrand"
)

// randomFault draws a fault that exercises every way a plan entry can
// relate to a test: call numbers 0, inside the fault-free range, one
// past it and far beyond; a function the test calls, one the program
// never calls, one libc lacks, and the empty name; an errno from the
// function's profile or one outside it.
func randomFault(rng *xrand.Rand, funcs []string, calls []int32) inject.Fault {
	var f inject.Fault
	reach := 0
	switch k := rng.Intn(20); {
	case k == 0:
		f.Function = "frobnicate" // libc lacks it
	case k == 1:
		f.Function = "setrlimit64" // registered; no target calls it
	case k == 2:
		f.Function = ""
	default:
		id := rng.Intn(len(funcs))
		f.Function = funcs[id]
		if calls != nil {
			reach = int(calls[id])
		}
	}
	switch k := rng.Intn(10); {
	case k == 0:
		f.CallNumber = 0
	case k == 1:
		f.CallNumber = reach + 1
	case k == 2:
		f.CallNumber = reach + 1 + rng.Intn(1000)
	case k == 3:
		f.CallNumber = -1
	default:
		f.CallNumber = 1 + rng.Intn(reach+1)
	}
	f.Err = libc.ErrorReturn{Retval: -1, Errno: []string{"EIO", "EINTR", "EAGAIN", "ENOMEM", "ENOSPC", ""}[rng.Intn(6)]}
	if prof := libc.Lookup(f.Function); prof != nil && rng.Intn(2) == 0 {
		f.Err = prof.Errors[rng.Intn(len(prof.Errors))]
	}
	return f
}

// checkAgainstReference holds Run, and the memo-free interpreter, to the
// reference on n seeded random one- and two-fault plans over p, and the
// fault-free memo to the reference's counters on every test.
func checkAgainstReference(t *testing.T, p *prog.Program, seed int64, n int) {
	t.Helper()
	funcs := p.FunctionsUsed()
	for testID := range p.TestSuite {
		want, wantCalls := prog.ReferenceRun(p, testID, inject.Plan{})
		got, calls := p.FaultFree(testID)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s test %d: fault-free memo\n got %+v\nwant %+v", p.Name, testID, got, want)
		}
		gotCalls := map[string]int{}
		for id, c := range calls {
			if c != 0 {
				gotCalls[funcs[id]] = int(c)
			}
		}
		if !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Fatalf("%s test %d: call counts\n got %v\nwant %v", p.Name, testID, gotCalls, wantCalls)
		}
	}
	rng := xrand.New(seed)
	fired := 0
	for i := 0; i < n; i++ {
		testID := rng.Intn(len(p.TestSuite)+2) - 1 // -1 and len are out of range
		var calls []int32
		if testID >= 0 && testID < len(p.TestSuite) {
			_, calls = p.FaultFree(testID)
		}
		plan := inject.Single(randomFault(rng, funcs, calls))
		if rng.Intn(2) == 0 {
			plan.Faults = append(plan.Faults, randomFault(rng, funcs, calls))
		}
		want, _ := prog.ReferenceRun(p, testID, plan)
		if got := prog.Run(p, testID, plan); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s test %d plan %q: Run\n got %+v\nwant %+v", p.Name, testID, plan, got, want)
		}
		if calls == nil {
			continue
		}
		// The memo's answer is the interpreter's: the same plan run from
		// scratch, fire or not.
		if got := prog.RunFromScratch(p, testID, plan); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s test %d plan %q: from scratch\n got %+v\nwant %+v", p.Name, testID, plan, got, want)
		}
		if want.Injected {
			fired++
		}
	}
	if fired == 0 || fired == n {
		t.Errorf("%s: %d of %d plans fired; the draw should cover both sides of the memo", p.Name, fired, n)
	}
}

func TestRunMatchesReferenceOnTargets(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i, name := range targets.Names() {
		p, err := targets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, p, int64(100+i), n)
	}
}

func TestRunMatchesReferenceOnGenerated(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		p := prog.Generate(prog.GenSpec{
			Name: fmt.Sprintf("gen%d", seed), Seed: seed,
			Modules: 4, RoutinesPerModule: 5, MinOps: 2, MaxOps: 7,
			Tests: 12, ScriptLen: 3,
			Fragility: 0.6, CrashBias: 0.5, CrossModule: 0.3, RepeatBias: 0.4,
			XMalloc: seed%3 == 0, ErrnoAware: 0.5,
		})
		checkAgainstReference(t, p, seed, 600)
	}
}

// everyBehavior is a hand-built program that puts every behaviour, on a
// libc call and on a callee's propagated error, behind its own test,
// together with Retry, Repeat, OnlyAfterError and ErrnoBehavior; it is
// not validated, and uses a negative and a sparse block id.
func everyBehavior() *prog.Program {
	p := &prog.Program{Name: "every", Routines: map[string]*prog.Routine{}, NumBlocks: 200}
	add := func(r *prog.Routine) {
		p.Routines[r.Name] = r
	}
	add(&prog.Routine{Name: "leaf", Module: "lib", Ops: []prog.Op{
		{Func: "read", Repeat: 3, OnError: prog.Propagate, Block: 1, RecoveryBlock: 2},
		{Func: "malloc", OnError: prog.Retry, Block: 3},
		{Func: "write", OnlyAfterError: true, OnError: prog.UncheckedCrash, Block: 4},
		{Func: "close", OnError: prog.Tolerate, Block: -7,
			ErrnoBehavior: map[string]prog.Behavior{"EIO": prog.AbortOnError, "EINTR": prog.Retry, "EBADF": prog.HangOnError}},
	}})
	for b := prog.Tolerate; b <= prog.ExitOnError+1; b++ { // one past the last: an unknown behaviour
		name := fmt.Sprintf("b%d", int(b))
		crashID := ""
		if b%2 == 0 {
			crashID = "planted-" + name
		}
		add(&prog.Routine{Name: name, Module: "srv", Ops: []prog.Op{
			{Func: "open", OnError: b, Block: 10 + int(b), RecoveryBlock: 40 + int(b), CrashID: crashID},
			{Func: "read", Repeat: 2, OnError: prog.Tolerate, Block: 70 + int(b)},
			{Callee: "leaf", OnError: b, Block: 100 + int(b), RecoveryBlock: 130 + int(b), CrashID: crashID},
			{Func: "fsync", OnlyAfterError: true, OnError: prog.CleanRecovery, RecoveryBlock: 160 + int(b)},
			{Func: "write", OnError: prog.Tolerate, Block: 1000 + int(b)},
		}})
		p.TestSuite = append(p.TestSuite, prog.Test{Name: "t-" + name, Script: []string{name, "leaf", name}})
	}
	return p
}

func TestRunMatchesReferenceOnEveryBehavior(t *testing.T) {
	checkAgainstReference(t, everyBehavior(), 7, 20000)
}

// TestBrokenProgramsPanicLikeReference: what Validate would have caught
// still fails loudly in an unvalidated program, with the old messages.
func TestBrokenProgramsPanicLikeReference(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	build := func(op prog.Op, script string) func() *prog.Program {
		return func() *prog.Program {
			return &prog.Program{
				Name:      "broken",
				Routines:  map[string]*prog.Routine{"a": {Name: "a", Module: "m", Ops: []prog.Op{op}}},
				TestSuite: []prog.Test{{Name: "t", Script: []string{script}}},
			}
		}
	}
	for name, mk := range map[string]func() *prog.Program{
		"unknown callee":        build(prog.Op{Callee: "ghost"}, "a"),
		"unknown script entry":  build(prog.Op{Func: "read"}, "ghost"),
		"unregistered function": build(prog.Op{Func: "frobnicate"}, "a"),
		"neither func nor call": build(prog.Op{}, "a"),
		"call cycle":            build(prog.Op{Callee: "a"}, "a"),
	} {
		want := panicOf(func() { prog.ReferenceRun(mk(), 0, inject.Plan{}) })
		got := panicOf(func() { prog.Run(mk(), 0, inject.Plan{}) })
		if want == "<nil>" || got != want {
			t.Errorf("%s:\n got panic %q\nwant panic %q", name, got, want)
		}
	}
}

func TestValidateNamesCallCycle(t *testing.T) {
	p := &prog.Program{
		Name: "cyclic",
		Routines: map[string]*prog.Routine{
			"main": {Name: "main", Module: "m", Ops: []prog.Op{{Func: "read", Block: 1}, {Callee: "a", Block: 1}}},
			"a":    {Name: "a", Module: "m", Ops: []prog.Op{{Callee: "b", Block: 1}}},
			"b":    {Name: "b", Module: "m", Ops: []prog.Op{{Callee: "c", Block: 1}, {Callee: "a", Block: 1}}},
			"c":    {Name: "c", Module: "m", Ops: []prog.Op{{Func: "write", Block: 1}}},
		},
		TestSuite: []prog.Test{{Name: "t", Script: []string{"main"}}},
		NumBlocks: 1,
	}
	err := p.Validate()
	if err == nil || err.Error() != "prog cyclic: routine call cycle a → b → a" {
		t.Fatalf("Validate = %v, want the a → b → a cycle named", err)
	}
	p.Routines["b"].Ops = p.Routines["b"].Ops[:1]
	if err := p.Validate(); err != nil {
		t.Fatalf("acyclic program rejected: %v", err)
	}
	// A diamond (two paths to one routine) is not a cycle.
	p.Routines["main"].Ops = append(p.Routines["main"].Ops, prog.Op{Callee: "c", Block: 1})
	if err := p.Validate(); err != nil {
		t.Fatalf("diamond rejected: %v", err)
	}
}
