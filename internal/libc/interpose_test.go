package libc_test

// The execution environment the package doc describes — per-function call
// counters and the interposition point consulted on every call — is part
// of prog's interpreter. These tests hold it to the facts the libc.Env
// unit tests used to assert, through prog.Run.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"afex/internal/inject"
	"afex/internal/libc"
	"afex/internal/prog"
)

// sequence builds a one-routine, one-test program that calls funcs in
// order, one op and one block each, tolerating every failure.
func sequence(funcs ...string) *prog.Program {
	r := &prog.Routine{Name: "r", Module: "m"}
	for i, fn := range funcs {
		r.Ops = append(r.Ops, prog.Op{Func: fn, OnError: prog.Tolerate, Block: i + 1})
	}
	return &prog.Program{
		Name:      "seq",
		Routines:  map[string]*prog.Routine{"r": r},
		TestSuite: []prog.Test{{Name: "t", Script: []string{"r"}}},
		NumBlocks: len(funcs),
	}
}

func failAt(fn string, n int) inject.Plan {
	return inject.Single(inject.Fault{Function: fn, CallNumber: n, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}})
}

// callsTo reads fn's fault-free call count in test 0.
func callsTo(p *prog.Program, fn string) int {
	_, calls := p.FaultFree(0)
	funcs := p.FunctionsUsed()
	i := sort.SearchStrings(funcs, fn)
	if i == len(funcs) || funcs[i] != fn {
		return 0
	}
	return int(calls[i])
}

// leaf is the innermost frame of the injection stack: the failed callsite.
func leaf(out prog.Outcome) string {
	if len(out.InjectionStack) == 0 {
		return ""
	}
	return out.InjectionStack[len(out.InjectionStack)-1]
}

func TestEnvCountsAndInjects(t *testing.T) {
	p := sequence("read", "read", "read", "read", "read")
	for n := 1; n <= 5; n++ {
		out := prog.Run(p, 0, failAt("read", n))
		if want := fmt.Sprintf("read:b%d", n); !out.Injected || leaf(out) != want {
			t.Fatalf("read@%d: injected=%v at %q, want the %d-th call, %s", n, out.Injected, leaf(out), n, want)
		}
	}
	if out := prog.Run(p, 0, failAt("read", 6)); out.Injected {
		t.Fatalf("read@6 fired in a test with five reads: %+v", out)
	}
	if n := callsTo(p, "read"); n != 5 {
		t.Errorf("read counted %d times, want 5", n)
	}
	// The error return reaches the callsite: the op reacts to its errno.
	p = sequence("read")
	p.Routines["r"].Ops[0].ErrnoBehavior = map[string]prog.Behavior{"EIO": prog.Propagate}
	if out := prog.Run(p, 0, failAt("read", 1)); !out.Failed {
		t.Errorf("EIO did not reach the callsite: %+v", out)
	}
}

func TestEnvCountersPerFunction(t *testing.T) {
	p := sequence("read", "write", "read")
	if r, w := callsTo(p, "read"), callsTo(p, "write"); r != 2 || w != 1 {
		t.Errorf("counts read=%d write=%d, want 2 and 1", r, w)
	}
	if out := prog.Run(p, 0, failAt("write", 1)); leaf(out) != "write:b2" {
		t.Errorf("write@1 hit %q, want write:b2", leaf(out))
	}
	if out := prog.Run(p, 0, failAt("read", 2)); leaf(out) != "read:b3" {
		t.Errorf("read@2 hit %q, want read:b3 (write calls must not advance read's counter)", leaf(out))
	}
}

// The hook is now the plan: an empty one never injects.
func TestEnvNilHookNeverInjects(t *testing.T) {
	p := sequence("malloc")
	p.Routines["r"].Ops[0].Repeat = 100
	for _, plan := range []inject.Plan{{}, {Faults: []inject.Fault{}}} {
		if out := prog.Run(p, 0, plan); out.Injected || out.Failed {
			t.Fatalf("empty plan injected: %+v", out)
		}
	}
	if n := callsTo(p, "malloc"); n != 100 {
		t.Errorf("malloc counted %d times, want 100", n)
	}
}

func TestEnvUnknownFunctionPanics(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, `unregistered function "bogus_fn"`) {
			t.Fatalf("expected a panic naming the unregistered function, got %q", msg)
		}
	}()
	prog.Run(sequence("bogus_fn"), 0, inject.Plan{})
}
