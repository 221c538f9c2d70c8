package backend

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"afex/internal/inject"
	"afex/internal/libc"
	"afex/internal/prog"
	"afex/shim"
)

// crashyBin is the bundled fixture, built once per test run by
// TestMain — the same binary CI builds for the binary-level round trip.
var crashyBin string

// fixtures maps each package TestMain builds to where its binary's path
// goes; platform test files add their own in init.
var fixtures = map[string]*string{"afex/cmd/crashy": &crashyBin}

// wideEnv makes the test binary a worker-mode fixture whose one test
// covers blocks 1…20,000, a set too large for one report line.
const wideEnv = "AFEX_TEST_WIDE_FIXTURE"

func TestMain(m *testing.M) {
	if os.Getenv(wideEnv) != "" {
		shim.Serve(0, func(int) int {
			for b := 1; b <= 20000; b++ {
				shim.Cover(b)
			}
			return 0
		})
	}
	dir, err := os.MkdirTemp("", "afex-backend-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for pkg, bin := range fixtures {
		*bin = filepath.Join(dir, filepath.Base(pkg))
		out, err := exec.Command("go", "build", "-o", *bin, pkg).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "building fixture %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// poolModes are the two ways the one process pool comes up for a
// worker-mode fixture: warm, and one-shot — which a spec with per-test
// argv rows selects, as it does in a session.
var poolModes = []struct {
	name    string
	oneShot bool
}{{"warm", false}, {"one-shot", true}}

// fixtureRunner builds the process backend over bin — one-shot by an
// empty per-test argv row, which changes no argv — and asserts it came
// up in that mode: warm is a Recycler, one-shot is not.
func fixtureRunner(t testing.TB, bin string, procs int, oneShot bool, timeout time.Duration) Runner {
	t.Helper()
	spec, err := ParseSpec("cmd:" + bin + " {test}")
	if err != nil {
		t.Fatal(err)
	}
	if oneShot {
		spec.TestArgs = [][]string{{}}
	}
	r, err := New(Process, Config{Command: spec, Timeout: timeout, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if _, warm := r.(Recycler); warm == oneShot {
		t.Fatalf("one-shot %v built %T (Recycler: %v)", oneShot, r, warm)
	}
	return r
}

// inBothModes runs f once per pool mode, as a subtest, on a crashy
// runner that came up in it.
func inBothModes(t *testing.T, timeout time.Duration, f func(t *testing.T, r Runner)) {
	for _, m := range poolModes {
		t.Run(m.name, func(t *testing.T) { f(t, fixtureRunner(t, crashyBin, 2, m.oneShot, timeout)) })
	}
}

func fault(fn string, call int) inject.Plan {
	prof := libc.Lookup(fn)
	if prof == nil {
		panic("unknown libc function " + fn)
	}
	return inject.Single(inject.Fault{Function: fn, CallNumber: call, Err: prof.Errors[0]})
}

func TestRegistryContract(t *testing.T) {
	names := Names()
	if len(names) < 2 || names[0] != Model || names[1] != Process {
		t.Fatalf("Names() = %v, want [model process ...]", names)
	}
	_, err := New("qemu", Config{})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"qemu"`) || !strings.Contains(msg, "valid:") {
		t.Fatalf("error %q does not name the bad backend and the valid choices", msg)
	}
	for _, n := range names {
		if !strings.Contains(msg, n) {
			t.Errorf("error %q does not list backend %q", msg, n)
		}
	}
	if _, err := New(Model, Config{}); err == nil {
		t.Error("model backend constructed without a target")
	}
	if _, err := New(Process, Config{}); err == nil {
		t.Error("process backend constructed without a command spec")
	}
	if _, err := New(Process, Config{Command: &CommandSpec{Argv: []string{"/nonexistent/afex-fixture"}}}); err == nil {
		t.Error("process backend accepted a missing binary")
	}
}

// tinyModel is a one-test program model whose only op is a read that
// propagates its error.
func tinyModel(t *testing.T) *prog.Program {
	t.Helper()
	target := &prog.Program{
		Name: "m",
		Routines: map[string]*prog.Routine{
			"r": {Name: "r", Module: "m", Ops: []prog.Op{
				{Func: "read", OnError: prog.Propagate, Block: 1},
			}},
		},
		TestSuite: []prog.Test{{Name: "t", Script: []string{"r"}}},
		NumBlocks: 1,
	}
	if err := target.Validate(); err != nil {
		t.Fatal(err)
	}
	return target
}

func TestModelRunnerMatchesProgRun(t *testing.T) {
	target := tinyModel(t)
	r, err := New("", Config{Target: target}) // "" selects model
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	plan := fault("read", 1)
	out, ex := r.Run(0, plan)
	want := prog.Run(target, 0, plan)
	if out.Failed != want.Failed || out.Injected != want.Injected {
		t.Errorf("model runner diverged from prog.Run: %+v vs %+v", out, want)
	}
	if ex.Backend != Model || ex.ExitStatus != "" || ex.Duration != 0 {
		t.Errorf("model Exec = %+v; want zero duration and no exit status (journal determinism)", ex)
	}
}

func TestProcessCleanPass(t *testing.T) {
	inBothModes(t, 5*time.Second, func(t *testing.T, r Runner) {
		out, ex := r.Run(3, inject.Plan{})
		if out.Failed || out.Injected {
			t.Errorf("fault-free probe run = %+v, want pass", out)
		}
		if ex.ExitStatus != "exit:0" || ex.Backend != Process {
			t.Errorf("Exec = %+v, want exit:0/process", ex)
		}
		if ex.Duration <= 0 {
			t.Error("process run reported no duration")
		}
		if len(out.Blocks) == 0 {
			t.Error("orderly exit delivered no coverage blocks")
		}
	})
}

func TestProcessOrderlyFailure(t *testing.T) {
	inBothModes(t, 5*time.Second, func(t *testing.T, r Runner) {
		out, ex := r.Run(0, fault("open", 1))
		if !out.Injected || !out.Failed || out.Crashed || out.Hung {
			t.Fatalf("open fault outcome = %+v, want injected orderly failure", out)
		}
		if ex.ExitStatus != "exit:1" {
			t.Errorf("ExitStatus = %q, want exit:1", ex.ExitStatus)
		}
		if len(out.InjectionStack) < 2 {
			t.Fatalf("stack %v too short; want fixture frames + injection point", out.InjectionStack)
		}
		inner := out.InjectionStack[len(out.InjectionStack)-1]
		if inner != "open:c1" {
			t.Errorf("innermost frame %q, want open:c1", inner)
		}
		if !strings.Contains(strings.Join(out.InjectionStack, " "), "main.readConfig") {
			t.Errorf("stack %v does not name the fixture function", out.InjectionStack)
		}
	})
}

func TestProcessRetryAbsorbsSingleFault(t *testing.T) {
	inBothModes(t, 5*time.Second, func(t *testing.T, r Runner) {
		out, ex := r.Run(0, fault("read", 1))
		if !out.Injected || out.Failed {
			t.Errorf("retried read fault = %+v (%s), want injected pass", out, ex.ExitStatus)
		}
	})
}

func TestProcessCrashMapsSignaledExit(t *testing.T) {
	inBothModes(t, 5*time.Second, func(t *testing.T, r Runner) {
		out, ex := r.Run(1, fault("malloc", 1))
		if !out.Injected || !out.Failed || !out.Crashed || out.Hung {
			t.Fatalf("malloc crash outcome = %+v, want crash", out)
		}
		if out.CrashID != "crashy/unchecked-malloc" {
			t.Errorf("CrashID = %q, want the shim-labelled planted bug", out.CrashID)
		}
		if !strings.HasPrefix(ex.ExitStatus, "signal:") {
			t.Errorf("ExitStatus = %q, want signal:*", ex.ExitStatus)
		}
	})
}

func TestProcessTimeoutMapsToHung(t *testing.T) {
	inBothModes(t, 300*time.Millisecond, func(t *testing.T, r Runner) {
		start := time.Now()
		out, ex := r.Run(2, fault("write", 1))
		if !out.Injected || !out.Failed || !out.Hung || out.Crashed {
			t.Fatalf("hung write outcome = %+v, want Hung", out)
		}
		if ex.ExitStatus != "timeout" {
			t.Errorf("ExitStatus = %q, want timeout", ex.ExitStatus)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("timeout enforcement took %v", elapsed)
		}
	})
}

func TestProcessDeterministicOutcomes(t *testing.T) {
	inBothModes(t, 5*time.Second, func(t *testing.T, r Runner) {
		// The fixture is deterministic, so repeated runs of one plan agree
		// on everything but wall clock — the property process-backend
		// resume equality rests on.
		first, _ := r.Run(0, fault("open", 1))
		for i := 0; i < 3; i++ {
			out, _ := r.Run(0, fault("open", 1))
			if out.Failed != first.Failed || out.Injected != first.Injected ||
				strings.Join(out.InjectionStack, "|") != strings.Join(first.InjectionStack, "|") {
				t.Fatalf("run %d diverged: %+v vs %+v", i, out, first)
			}
		}
	})
}

// BenchmarkProcessExecutor measures one supervised scenario execution
// end to end under each execution mode: cold pays a fork/exec + env
// marshal per scenario (a per-test argv row forces it), warm re-arms a
// persistent worker over the arm pipe one Run at a time, warm/batch8
// arms eight scenarios per pipe write through RunBatch (the lease batch
// an engine worker holds). CI's bench smoke asserts the warm/cold
// scenarios/sec ratio stays ≥ 5x and prints the batch arm.
func BenchmarkProcessExecutor(b *testing.B) {
	plan := fault("open", 1)
	for _, mode := range []struct {
		name    string
		oneShot bool
		batch   int
	}{{"cold", true, 1}, {"warm", false, 1}, {"warm/batch8", false, 8}} {
		b.Run(mode.name, func(b *testing.B) {
			r := fixtureRunner(b, crashyBin, 2, mode.oneShot, 5*time.Second)
			tests := make([]Test, mode.batch)
			for i := range tests {
				tests[i] = Test{TestID: 0, Plan: plan}
			}
			check := func(_ int, out prog.Outcome, _ Exec) {
				if !out.Injected {
					b.Fatal("fault did not fire")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(tests) {
				if mode.batch == 1 {
					out, ex := r.Run(0, plan)
					check(0, out, ex)
				} else {
					RunBatch(r, tests[:min(len(tests), b.N-i)], check)
				}
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N)/s, "scenarios/sec")
			}
		})
	}
}
