package inject_test

// How a plan fires is decided by prog's interpreter, which arms it. These
// tests hold it to the facts the inject.Injector unit tests used to
// assert, through prog.Run.

import (
	"reflect"
	"testing"

	"afex/internal/inject"
	"afex/internal/libc"
	"afex/internal/prog"
)

// target reads three times, writes only if one of the reads failed, and
// allocates seven times. Every failure is tolerated, so a run always
// reaches the end and block 4 records whether a read fault fired.
func target() *prog.Program {
	return &prog.Program{
		Name: "fire",
		Routines: map[string]*prog.Routine{"r": {Name: "r", Module: "m", Ops: []prog.Op{
			{Func: "read", OnError: prog.Tolerate, Block: 1},
			{Func: "read", OnError: prog.Tolerate, Block: 2},
			{Func: "read", OnError: prog.Tolerate, Block: 3},
			{Func: "write", OnlyAfterError: true, OnError: prog.Tolerate, Block: 4},
			{Func: "malloc", Repeat: 7, OnError: prog.Tolerate, Block: 5},
		}}},
		TestSuite: []prog.Test{{Name: "t", Script: []string{"r"}}},
		NumBlocks: 5,
	}
}

var (
	eio    = libc.ErrorReturn{Retval: -1, Errno: "EIO"}
	enomem = libc.ErrorReturn{Retval: 0, Errno: "ENOMEM"}
)

func leaf(out prog.Outcome) string {
	if len(out.InjectionStack) == 0 {
		return ""
	}
	return out.InjectionStack[len(out.InjectionStack)-1]
}

func TestInjectorFiresExactlyOnce(t *testing.T) {
	once := inject.Single(inject.Fault{Function: "read", CallNumber: 2, Err: eio})
	out := prog.Run(target(), 0, once)
	if !out.Injected || leaf(out) != "read:b2" {
		t.Fatalf("read@2 fired at %q (injected=%v), want read:b2 and not the first or third read", leaf(out), out.Injected)
	}
	// The same entry twice is still one injection: the second copy has
	// no second call number 2 to match.
	twice := inject.Plan{Faults: []inject.Fault{once.Faults[0], once.Faults[0]}}
	if again := prog.Run(target(), 0, twice); !reflect.DeepEqual(again, out) {
		t.Errorf("duplicate plan entry changed the run:\n once %+v\ntwice %+v", out, again)
	}
}

func TestInjectorMultiFault(t *testing.T) {
	first := inject.Fault{Function: "read", CallNumber: 3, Err: libc.ErrorReturn{Retval: -1, Errno: "EINTR"}}
	second := inject.Fault{Function: "malloc", CallNumber: 7, Err: enomem}
	for _, plan := range []inject.Plan{{Faults: []inject.Fault{first, second}}, {Faults: []inject.Fault{second, first}}} {
		out := prog.Run(target(), 0, plan)
		if leaf(out) != "malloc:b5" {
			t.Errorf("malloc@7 did not fire (last injection at %q)", leaf(out))
		}
		if _, ok := out.Blocks[4]; !ok {
			t.Error("read@3 did not fire: the recovery-path write never ran")
		}
	}
	// One fault alone fires alone.
	if out := prog.Run(target(), 0, inject.Single(first)); leaf(out) != "read:b3" {
		t.Errorf("read@3 alone fired at %q", leaf(out))
	}
}

func TestPluginConvertSecondSlotNoInjection(t *testing.T) {
	var p inject.Plugin
	_, plan, err := p.ConvertValues(
		[]string{"function", "callNumber", "function2", "callNumber2"},
		[]string{"read", "1", "malloc", "0"}) // callNumber2 0: an explicit no-injection slot
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Faults) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	out := prog.Run(target(), 0, plan)
	if leaf(out) != "read:b1" {
		t.Errorf("primary fault lost: last injection at %q", leaf(out))
	}
	// callNumber2 = 0 must not arm anything: the second slot alone is the
	// fault-free run.
	clean := prog.Run(target(), 0, inject.Plan{})
	if alone := prog.Run(target(), 0, inject.Plan{Faults: plan.Faults[1:]}); !reflect.DeepEqual(alone, clean) {
		t.Errorf("callNumber 0 armed something: %+v", alone)
	}
}
