package backend

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"afex/internal/inject"
	"afex/internal/prog"
	"afex/shim"
)

// warmRunner builds the process backend over crashy with an explicit
// pool width; it came up warm, so it is the pool's Recycler face.
func warmRunner(t *testing.T, procs int, timeout time.Duration) *workerRunner {
	t.Helper()
	return fixtureRunner(t, crashyBin, procs, false, timeout).(*workerRunner)
}

// shortLived makes every worker of an idle pool — those in its slots and
// those it spawns — live one arm group: a share of zero spawn-to-ready
// times.
func shortLived(p *workerRunner) {
	p.share = 0
	for i := 0; i < cap(p.slots); i++ {
		w := <-p.slots
		if w != nil {
			w.life = 0
		}
		p.slots <- w
	}
}

func TestWorkerPoolReusesProcess(t *testing.T) {
	r := warmRunner(t, 1, 5*time.Second)
	for i := 0; i < 4; i++ {
		out, ex := r.Run(3, inject.Plan{})
		if out.Failed || ex.ExitStatus != "exit:0" {
			t.Fatalf("scenario %d = %+v (%s), want clean pass", i, out, ex.ExitStatus)
		}
		if len(out.Blocks) == 0 {
			t.Fatalf("scenario %d delivered no coverage", i)
		}
	}
	// White box: with one slot and no crashes, all four scenarios must
	// have run on the same worker process.
	w := <-r.slots
	r.slots <- w
	if w == nil || w.seq != 4 {
		t.Fatalf("pool slot = %+v, want one live worker that served 4 arms", w)
	}
}

func TestWorkerCoverageResetsBetweenScenarios(t *testing.T) {
	r := warmRunner(t, 1, 5*time.Second)
	// Test 3 covers blocks 30-31; test 0 covers 1,3-5. If the shim did
	// not reset coverage at re-arm, the second scenario would report the
	// union.
	if out, _ := r.Run(3, inject.Plan{}); len(out.Blocks) == 0 {
		t.Fatal("first scenario delivered no coverage")
	}
	out, _ := r.Run(0, inject.Plan{})
	for b := range out.Blocks {
		if b >= 30 {
			t.Fatalf("scenario 2 coverage %v leaked blocks from scenario 1", out.Blocks)
		}
	}
	// Call counters must reset too: the same callNumber-1 fault fires
	// again on a reused worker.
	first, _ := r.Run(0, fault("open", 1))
	second, _ := r.Run(0, fault("open", 1))
	if !first.Injected || !second.Injected {
		t.Fatalf("repeat injection on warm worker: %v then %v, want both injected",
			first.Injected, second.Injected)
	}
}

// TestLargeCoverageSetFoldsWhole: a coverage set whose one report line
// would pass reportLineMax goes out over several lines, and both pool
// modes fold all of it.
func TestLargeCoverageSetFoldsWhole(t *testing.T) {
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(wideEnv, "1")
	for _, m := range poolModes {
		t.Run(m.name, func(t *testing.T) {
			r := fixtureRunner(t, bin, 1, m.oneShot, 5*time.Second)
			for i := 0; i < 2; i++ { // the second fold finds the set interned
				out, ex := r.Run(0, inject.Plan{})
				if ex.ExitStatus != "exit:0" || len(out.Blocks) != 20000 || out.BlockSum != prog.SumBlocks(out.Blocks) {
					t.Fatalf("run %d: %s with %d blocks (sum %#x), want exit:0 and blocks 1…20000", i, ex.ExitStatus, len(out.Blocks), out.BlockSum)
				}
			}
		})
	}
}

func TestWorkerCrashMidScenarioFoldsOnceAndRespawns(t *testing.T) {
	r := warmRunner(t, 1, 5*time.Second)
	// Warm up the worker with a clean scenario, then crash it.
	if out, _ := r.Run(3, inject.Plan{}); out.Failed {
		t.Fatal("warm-up scenario failed")
	}
	out, ex := r.Run(1, fault("malloc", 1))
	if !out.Injected || !out.Crashed || out.Hung {
		t.Fatalf("crash scenario = %+v, want Crashed", out)
	}
	if out.CrashID != "crashy/unchecked-malloc" {
		t.Errorf("CrashID = %q, want the shim-labelled planted bug", out.CrashID)
	}
	if !strings.HasPrefix(ex.ExitStatus, "signal:") {
		t.Errorf("ExitStatus = %q, want signal:*", ex.ExitStatus)
	}
	// The slot is empty now — the death consumed the worker — and the
	// next scenario respawns it transparently.
	w := <-r.slots
	r.slots <- w
	if w != nil {
		t.Fatalf("slot still holds %+v after its worker crashed", w)
	}
	out, ex = r.Run(3, inject.Plan{})
	if out.Failed || ex.ExitStatus != "exit:0" {
		t.Fatalf("post-crash scenario = %+v (%s), want clean pass on respawned worker", out, ex.ExitStatus)
	}
}

func TestWorkerHangKillsOnlyThatWorker(t *testing.T) {
	r := warmRunner(t, 1, 400*time.Millisecond)
	out, ex := r.Run(2, fault("write", 1))
	if !out.Hung || ex.ExitStatus != "timeout" {
		t.Fatalf("hung scenario = %+v (%s), want Hung/timeout", out, ex.ExitStatus)
	}
	out, _ = r.Run(3, inject.Plan{})
	if out.Failed {
		t.Fatalf("post-hang scenario = %+v, want clean pass on respawned worker", out)
	}
}

// TestWorkerRecyclesOnSpawnShare: a warm worker lives spawnShare times
// its own spawn-to-ready time of serving scenarios, retires after the
// arm group that spends it — counted by Recycles — and the slot respawns
// a worker with a life of its own.
func TestWorkerRecyclesOnSpawnShare(t *testing.T) {
	r := warmRunner(t, 1, 5*time.Second)
	slot := func() *worker {
		w := <-r.slots
		r.slots <- w
		return w
	}
	run := func() {
		t.Helper()
		if out, ex := r.Run(3, inject.Plan{}); out.Failed || ex.ExitStatus != "exit:0" {
			t.Fatalf("scenario = %+v (%s), want a clean pass", out, ex.ExitStatus)
		}
	}
	probe := slot()
	if probe == nil || probe.life <= 0 {
		t.Fatalf("the probe worker came up as %+v, want a life its share of a measured spawn", probe)
	}
	// A scenario costs a sliver of a life a hundred spawns long.
	run()
	if w := slot(); w != probe || probe.busy <= 0 || probe.busy >= probe.life || r.Recycles() != 0 {
		t.Fatalf("after one scenario the slot holds %p, not the probe %p (busy %v of %v), or %d recycles", w, probe, probe.busy, probe.life, r.Recycles())
	}
	// Its life spent, the worker serves the group it is armed with, then
	// retires and the slot empties.
	w := <-r.slots
	w.busy = w.life
	r.slots <- w
	run()
	if w := slot(); w != nil || r.Recycles() != 1 {
		t.Fatalf("after the worker's life was spent the slot holds %+v, %d recycles; want it empty, 1", w, r.Recycles())
	}
	// The next scenario spawns a fresh worker, with a life measured anew.
	run()
	if w := slot(); w == nil || w == probe || w.seq != 1 || w.life <= 0 {
		t.Fatalf("recycled slot = %+v, want a fresh worker that served 1 arm", w)
	}
	// With a share of zero spawns every worker lives one group.
	shortLived(r)
	run()
	run()
	if w := slot(); w != nil || r.Recycles() != 3 {
		t.Fatalf("short-lived workers left %+v and %d recycles, want an empty slot and 3", w, r.Recycles())
	}
}

// pidLogged wraps argv in a shell that appends its pid to a file before
// it becomes the fixture, and returns the spec plus a reader of the pids
// logged so far: one per process the pool has spawned.
func pidLogged(t *testing.T, argv ...string) (*CommandSpec, func() []string) {
	t.Helper()
	log := filepath.Join(t.TempDir(), "pids")
	spec := &CommandSpec{Argv: append([]string{"/bin/sh", "-c", `echo $$ >> "$0"; exec "$@"`, log}, argv...)}
	return spec, func() []string {
		b, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Fields(string(b))
	}
}

// requirePoolMode builds the process backend over the pid-logged argv and
// holds it to its mode by behaviour: warm is a Recycler and serves every
// scenario from one process; one-shot is not, and spawns a fresh process
// per scenario (after probes processes the construction probe left dead).
func requirePoolMode(t *testing.T, warm bool, probes int, testArgs [][]string, argv ...string) {
	t.Helper()
	spec, pids := pidLogged(t, argv...)
	spec.TestArgs = testArgs
	r, err := New(Process, Config{Command: spec, Timeout: 5 * time.Second, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.(Recycler); ok != warm {
		t.Errorf("%T is a Recycler: %v, want %v", r, ok, warm)
	}
	const scenarios = 3
	for i := 0; i < scenarios; i++ {
		if out, ex := r.Run(3, inject.Plan{}); out.Failed || ex.ExitStatus != "exit:0" {
			t.Fatalf("scenario %d = %+v (%s), want a clean pass", i, out, ex.ExitStatus)
		}
	}
	want := probes + scenarios
	if warm {
		want = 1
	}
	seen := map[string]bool{}
	for _, pid := range pids() {
		seen[pid] = true
	}
	if len(seen) != want {
		t.Errorf("%d scenarios ran on %d processes %v, want %d", scenarios, len(seen), pids(), want)
	}
}

func TestWorkerPoolComesUpWarmForWorkerModeFixture(t *testing.T) {
	requirePoolMode(t, true, 0, nil, crashyBin, "{test}")
}

func TestWorkerFallsBackColdForTestArgs(t *testing.T) {
	// Per-test argv tails must be baked in at spawn time, so the pool
	// keeps one fork/exec per scenario for them, unprobed.
	requirePoolMode(t, false, 0, [][]string{{}, {}, {}, {}}, crashyBin, "{test}")
}

func TestWorkerFallsBackColdForOneShotFixture(t *testing.T) {
	// A binary that ignores AFEX_WORKER_FD never announces readiness;
	// the probe must notice and the pool come up one-shot rather than
	// treat every scenario as a dead worker.
	requirePoolMode(t, false, 1, nil, "true")
}

// TestProcessOutcomesCarryInternedSums: the supervisor sums the blocks a
// shim reports — however the report splits or repeats them — to what
// SumBlocks says of the finished set, and a runner hands every scenario
// that covered one set the same map; end to end on the warm pool, two
// runs of one fault-free test share theirs.
func TestProcessOutcomesCarryInternedSums(t *testing.T) {
	var sets prog.BlockSets
	report := []shim.Event{{Kind: shim.EventBlocks, Blocks: []int{5, 1, 9, 5}}, {Kind: shim.EventBlocks, Blocks: []int{9, 12}}}
	a, _ := foldEvents(report, &sets)
	b, _ := foldEvents([]shim.Event{{Kind: shim.EventBlocks, Blocks: []int{12, 9, 5, 1}}}, &sets)
	want := map[int]struct{}{1: {}, 5: {}, 9: {}, 12: {}}
	if !reflect.DeepEqual(a.Blocks, want) || a.BlockSum != prog.SumBlocks(want) || b.BlockSum != a.BlockSum {
		t.Fatalf("folded %v (sum %#x) and %v (sum %#x), want %v (sum %#x)", a.Blocks, a.BlockSum, b.Blocks, b.BlockSum, want, prog.SumBlocks(want))
	}
	if reflect.ValueOf(a.Blocks).Pointer() != reflect.ValueOf(b.Blocks).Pointer() {
		t.Error("two reports of one set must share the interned map")
	}
	if none, _ := foldEvents(nil, &sets); none.Blocks != nil || none.BlockSum != 0 {
		t.Errorf("a report without blocks folded to %+v", none)
	}

	r := warmRunner(t, 1, 5*time.Second)
	first, _ := r.Run(3, inject.Plan{})
	second, _ := r.Run(3, inject.Plan{})
	if len(first.Blocks) == 0 || first.BlockSum != prog.SumBlocks(first.Blocks) || second.BlockSum != first.BlockSum ||
		reflect.ValueOf(first.Blocks).Pointer() != reflect.ValueOf(second.Blocks).Pointer() {
		t.Errorf("two fault-free runs of one test: %v (sum %#x) and %v (sum %#x), want one shared set", first.Blocks, first.BlockSum, second.Blocks, second.BlockSum)
	}
}
