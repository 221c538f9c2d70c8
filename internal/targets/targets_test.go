package targets

import (
	"strings"
	"testing"

	"afex/internal/inject"
	"afex/internal/libc"
	"afex/internal/prog"
)

func TestSuiteDimensionsMatchPaper(t *testing.T) {
	if got := len(Coreutils().TestSuite); got != 29 {
		t.Errorf("coreutils suite = %d tests, want 29", got)
	}
	if got := len(Mysqld().TestSuite); got != 1147 {
		t.Errorf("mysqld suite = %d tests, want 1147", got)
	}
	if got := len(Httpd().TestSuite); got != 58 {
		t.Errorf("httpd suite = %d tests, want 58", got)
	}
}

func TestBaselinesPassWithoutInjection(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.TestSuite {
			out := prog.Run(p, i, inject.Plan{})
			if out.Failed {
				t.Fatalf("%s test %d (%s) fails without injection", name, i, p.TestSuite[i].Name)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	for alias, want := range map[string]string{
		"mysql": "mysqld", "apache": "httpd", "mongo": "mongo-v2.0",
	} {
		p, err := ByName(alias)
		if err != nil || p.Name != want {
			t.Errorf("alias %q → %v, %v", alias, p, err)
		}
	}
	if _, err := ByName("postgres"); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestTargetsAreCached(t *testing.T) {
	if Coreutils() != Coreutils() {
		t.Error("Coreutils not cached")
	}
}

func failAt(fn string, n int) inject.Plan {
	prof := libc.Lookup(fn)
	return inject.Single(inject.Fault{Function: fn, CallNumber: n, Err: prof.Errors[0]})
}

// TestMySQLErrmsgBug reproduces bug #25097's model: failing the third
// read (the errmsg.sys message read during server boot) crashes every
// test despite the error being "handled".
func TestMySQLErrmsgBug(t *testing.T) {
	p := Mysqld()
	for _, tid := range []int{0, 500, 1146} {
		out := prog.Run(p, tid, failAt("read", 3))
		if !out.Crashed || out.CrashID != BugMySQLErrmsg {
			t.Fatalf("test %d: read@3 outcome %+v, want errmsg crash", tid, out)
		}
		if len(out.InjectionStack) == 0 || out.InjectionStack[0] != "server!server_srv_boot" {
			t.Errorf("stack = %v, want boot path", out.InjectionStack)
		}
	}
	// Reads 1 and 2 are handled without crashing.
	for _, n := range []int{1, 2} {
		out := prog.Run(p, 0, failAt("read", n))
		if out.Crashed {
			t.Errorf("read@%d crashed; only read@3 carries the bug", n)
		}
	}
}

// TestMySQLDoubleUnlockBug reproduces bug #53268's model: in the DDL
// tests that run mi_create, a failing my_close reaches the shared
// recovery label after the lock was already released.
func TestMySQLDoubleUnlockBug(t *testing.T) {
	p := Mysqld()
	found := false
	// mi_create runs at the end of DDL tests; its close call number
	// within the whole test varies by test, so scan plausible numbers.
	for _, tid := range []int{185, 200, 250} {
		for n := 1; n <= 60 && !found; n++ {
			out := prog.Run(p, tid, failAt("close", n))
			if out.CrashID == BugMySQLDoubleUnlock {
				found = true
				if !out.Crashed {
					t.Error("double-unlock did not crash")
				}
				wantFrame := "myisam!myisam_mi_create"
				if out.InjectionStack[0] != wantFrame {
					t.Errorf("stack = %v, want top frame %s", out.InjectionStack, wantFrame)
				}
			}
		}
	}
	if !found {
		t.Fatal("double-unlock bug unreachable in DDL tests")
	}
	// Tests outside the DDL slice never run mi_create.
	for n := 1; n <= 60; n++ {
		if out := prog.Run(p, 10, failAt("close", n)); out.CrashID == BugMySQLDoubleUnlock {
			t.Fatal("double-unlock reachable from a non-DDL test")
		}
	}
}

// TestApacheStrdupBug reproduces Fig. 7's model: strdup returning NULL in
// the module-loading path crashes the server with no recovery code run.
func TestApacheStrdupBug(t *testing.T) {
	p := Httpd()
	out := prog.Run(p, 0, failAt("strdup", 1))
	if !out.Crashed || out.CrashID != BugApacheStrdup {
		t.Fatalf("strdup@1 on config test: %+v", out)
	}
	if out.InjectionStack[0] != "config!config_ap_load_modules" {
		t.Errorf("stack = %v", out.InjectionStack)
	}
	// The loop strdups once per module, so several call numbers crash.
	crashes := 0
	for n := 1; n <= 5; n++ {
		if out := prog.Run(p, 3, failAt("strdup", n)); out.CrashID == BugApacheStrdup {
			crashes++
		}
	}
	if crashes < 3 {
		t.Errorf("only %d of the looped strdup calls crash", crashes)
	}
	// Non-config tests do not load modules.
	if out := prog.Run(p, 40, failAt("strdup", 1)); out.CrashID == BugApacheStrdup {
		t.Error("strdup bug reachable outside the config tests")
	}
}

// TestMongoMaturityShape checks the §7.6 setup: v0.8 cannot crash at all,
// v2.0 can (the journaling abort), and v2.0 makes more library calls per
// test (heavier environment interaction).
func TestMongoMaturityShape(t *testing.T) {
	v08, v20 := MongoV08(), MongoV20()
	for _, r := range v08.Routines {
		for _, op := range r.Ops {
			switch op.OnError {
			case prog.UncheckedCrash, prog.BuggyRecovery, prog.AbortOnError, prog.RecoveredThenCrash:
				t.Fatalf("v0.8 routine %s has crashing behaviour %v", r.Name, op.OnError)
			}
		}
	}
	found := false
	for _, tid := range []int{45, 50} {
		for n := 1; n <= 10; n++ {
			if out := prog.Run(v20, tid, failAt("fsync", n)); out.CrashID == BugMongoV2Crash {
				found = true
			}
		}
	}
	if !found {
		t.Error("v2.0 journaling crash unreachable")
	}
	callsOf := func(p *prog.Program) int {
		total := 0
		for i := range p.TestSuite {
			env := libcEnvCount(p, i)
			total += env
		}
		return total / len(p.TestSuite)
	}
	if callsOf(v20) <= callsOf(v08) {
		t.Error("v2.0 should interact with the environment more than v0.8")
	}
}

func libcEnvCount(p *prog.Program, testID int) int {
	_, calls := p.FaultFree(testID)
	n := 0
	for _, c := range calls {
		n += int(c)
	}
	return n
}

func TestCoreutilsModulesNamed(t *testing.T) {
	p := Coreutils()
	seen := map[string]bool{}
	for _, r := range p.Routines {
		seen[r.Module] = true
	}
	for _, util := range []string{"ls", "ln", "mv", "cp", "rm"} {
		if !seen[util] {
			t.Errorf("utility module %q missing", util)
		}
	}
	hasLsTest := false
	for _, tc := range p.TestSuite {
		if strings.Contains(tc.Name, "/ls-") {
			hasLsTest = true
		}
	}
	if !hasLsTest {
		t.Error("no ls tests in the suite; Fig. 1 needs them")
	}
}

// TestCoreutilsXMallocDiscipline: every malloc fault injected into any
// test that reaches the allocation must fail the test cleanly (no crash)
// — gnulib xmalloc semantics, and the basis of the §7.5 experiment.
func TestCoreutilsXMallocDiscipline(t *testing.T) {
	p := Coreutils()
	for tid := range p.TestSuite {
		for n := 1; n <= 2; n++ {
			out := prog.Run(p, tid, failAt("malloc", n))
			if !out.Injected {
				continue
			}
			if !out.Failed {
				t.Errorf("test %d malloc@%d injected but test passed; xmalloc must abort", tid, n)
			}
			if out.Crashed {
				t.Errorf("test %d malloc@%d crashed; xmalloc aborts cleanly", tid, n)
			}
		}
	}
}
