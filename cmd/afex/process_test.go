package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"afex"
)

// crashyBin is the bundled process-backend fixture, built once per test
// run.
var crashyBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "afex-cli-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	crashyBin = filepath.Join(dir, "crashy")
	out, err := exec.Command("go", "build", "-o", crashyBin, "afex/cmd/crashy").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building fixture: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// crashySpace is the fixture's fault space: 4 tests × 4 functions × 3
// call numbers = 48 points.
const crashySpace = "testID : [ 0 , 3 ]  function : { open , read , malloc , write }  callNumber : [ 1 , 3 ] ;"

func crashyArgs(extra ...string) []string {
	base := []string{
		"--target", "cmd:" + crashyBin + " {test}",
		"--space", crashySpace,
		"--timeout", "500ms",
	}
	return append(base, extra...)
}

// TestCmdExploreProcessBackend is the acceptance path: exploring the
// bundled fixture as a cmd: target finds failure clusters (the
// fixture plants an orderly failure, a crash and a hang), surfacing the
// CI-gating exit sentinel, and re-runs each representative on the
// process backend for its impact precision.
func TestCmdExploreProcessBackend(t *testing.T) {
	err := cmdExplore(crashyArgs("--algorithm", "exhaustive", "--iterations", "0", "--precision-trials", "2"))
	if !errors.Is(err, errFailuresFound) {
		t.Fatalf("process exploration of the crashy fixture should find failures, got %v", err)
	}
}

// TestCmdExploreProcessTargetValidation: a cmd: target needs a space
// description and a binary that exists.
func TestCmdExploreProcessTargetValidation(t *testing.T) {
	if err := cmdExplore([]string{"--target", "cmd:" + crashyBin + " {test}"}); err == nil {
		t.Error("cmd: target accepted without --space")
	}
	if err := cmdExplore([]string{"--target", "cmd:/nonexistent/afex-fixture {test}", "--space", crashySpace}); err == nil {
		t.Error("cmd: target accepted with a missing binary")
	}
}

// TestCmdExploreProcessResume: the full persistence loop on the process
// backend, once per journal format — an interrupted-then-resumed
// session journals, entry for entry, exactly what one uninterrupted run
// journals (wall clock and run indices aside), scenario keys never
// repeat, and `afex replay` reproduces the recorded failures by
// re-running the fixture.
func TestCmdExploreProcessResume(t *testing.T) {
	for _, format := range []string{afex.JournalJSONL, afex.JournalBinary} {
		t.Run(format, func(t *testing.T) {
			const total = 30
			full := filepath.Join(t.TempDir(), "full")
			split := filepath.Join(t.TempDir(), "split")
			formatArgs := func(extra ...string) []string {
				return crashyArgs(append([]string{"--journal-format", format}, extra...)...)
			}

			if err := noFailures(cmdExplore(formatArgs("--state-dir", full, "--iterations", fmt.Sprint(total)))); err != nil {
				t.Fatal(err)
			}
			// The "kill": a run with a smaller budget finishes cleanly at 12
			// folds — at snapshot granularity that is exactly a SIGKILL landing
			// after fold 12 (Finish writes the snapshot the resume restores).
			if err := noFailures(cmdExplore(formatArgs("--state-dir", split, "--iterations", "12"))); err != nil {
				t.Fatal(err)
			}
			if err := noFailures(cmdExplore(formatArgs("--state-dir", split, "--iterations", fmt.Sprint(total), "--resume"))); err != nil {
				t.Fatal(err)
			}

			fullEntries, err := readJournalEntries(full)
			if err != nil {
				t.Fatal(err)
			}
			splitEntries, err := readJournalEntries(split)
			if err != nil {
				t.Fatal(err)
			}
			if len(fullEntries) != total || len(splitEntries) != total {
				t.Fatalf("journals hold %d and %d entries, want %d", len(fullEntries), len(splitEntries), total)
			}
			seen := map[string]bool{}
			for i := range fullEntries {
				a, b := fullEntries[i], splitEntries[i]
				if seen[b.Key()] {
					t.Fatalf("scenario %s executed twice across the split runs", b.Key())
				}
				seen[b.Key()] = true
				// Wall clock and run index are the only legitimate differences
				// between the uninterrupted and the resumed session.
				a.DurationNS, b.DurationNS = 0, 0
				a.Run, b.Run = 0, 0
				if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
					t.Fatalf("entry %d diverged after resume:\n full: %+v\nsplit: %+v", i, a, b)
				}
			}
			// Sanity: the equality above covered real failures, journaled with
			// their backend identity.
			failures := 0
			for _, e := range fullEntries {
				if e.Failed {
					failures++
				}
				if e.Backend != afex.ProcessBackend {
					t.Fatalf("entry %d journaled backend %q, want process", e.Seq, e.Backend)
				}
			}
			if failures == 0 {
				t.Fatal("no failures among the journaled scenarios; the fixture should plant some")
			}

			// Recorded failures replay through the process backend from the
			// journaled plans (the recorded cmd: target re-runs the fixture).
			if err := cmdReplay([]string{split, "--timeout", "2s"}); err != nil {
				t.Fatalf("process replay did not reproduce recorded failures: %v", err)
			}
		})
	}
}

// TestCmdWorkerProcessBackend drives a distributed session whose node
// manager executes on the process backend: serve hands out scenarios,
// the worker runs them as real subprocesses of the fixture.
func TestCmdWorkerProcessBackend(t *testing.T) {
	target, err := afex.Target("coreutils")
	if err != nil {
		t.Fatal(err)
	}
	_ = target // serve needs a model target; the worker brings the fixture
	space, err := afex.ParseSpace(crashySpace)
	if err != nil {
		t.Fatal(err)
	}
	coord, _, err := afex.NewCoordinatorWithOptions(afex.CoordinatorOptions{
		Space: space, Algorithm: afex.Exhaustive, Explore: afex.ExploreOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := afex.ServeCoordinator("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	spec, err := afex.ParseCommandSpec("cmd:" + crashyBin + " {test}")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := afex.DialManagerBackend(srv.Addr(), "proc01", afex.ProcessBackend,
		afex.BackendConfig{Command: spec, Timeout: 500_000_000, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	if n != 48 {
		t.Fatalf("worker executed %d tests, want the whole 48-point space", n)
	}
	res := coord.Result()
	if res.Failed == 0 || res.UniqueFailures == 0 {
		t.Fatalf("distributed process session found no failures: %+v", res)
	}
	for _, rec := range res.Records {
		if rec.Backend != afex.ProcessBackend {
			t.Fatalf("record %d folded with backend %q, want process", rec.ID, rec.Backend)
		}
	}
}

// TestBatchedProcessSessionMatchesSequential: a two-worker session,
// whose workers arm whole lease batches of 8 on the warm pool, yields key
// for key the outcome class and exit status a sequential session (one
// arm, one done) yields — the fixture's 4 failures, 1 crash and 1 hang,
// each folded once wherever in a batch it fell — and journals them as
// records that read back the same.
func TestBatchedProcessSessionMatchesSequential(t *testing.T) {
	space, err := afex.ParseSpace(crashySpace)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := afex.ParseCommandSpec("cmd:" + crashyBin + " {test}")
	if err != nil {
		t.Fatal(err)
	}
	class := func(failed, crashed, hung bool, exit string) string {
		return fmt.Sprintf("failed=%v crashed=%v hung=%v %s", failed, crashed, hung, exit)
	}
	session := func(workers int) map[string]string {
		dir := t.TempDir()
		eng, closeStore, err := afex.NewSession(afex.Options{
			Command: spec, Space: space, Algorithm: afex.Exhaustive,
			Workers: workers, Batch: 8, Procs: 2, ExecTimeout: 500 * time.Millisecond,
			StateDir: dir, JournalFormat: afex.JournalJSONL,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := eng.RunLocal()
		if err := closeStore(); err != nil {
			t.Fatal(err)
		}
		if res.Executed != 48 || res.Failed != 4 || res.Crashed != 1 || res.Hung != 1 {
			t.Fatalf("workers=%d: %d executed, %d failures / %d crashes / %d hangs, want 48 and 4 / 1 / 1",
				workers, res.Executed, res.Failed, res.Crashed, res.Hung)
		}
		entries, err := readJournalEntries(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(res.Records) {
			t.Fatalf("workers=%d: journal holds %d entries for %d records", workers, len(entries), len(res.Records))
		}
		byKey := map[string]string{}
		for i, rec := range res.Records {
			key, o := rec.Point.Key(), rec.Outcome
			if _, dup := byKey[key]; dup {
				t.Fatalf("workers=%d: scenario %s folded twice", workers, key)
			}
			byKey[key] = class(o.Failed, o.Crashed, o.Hung, rec.ExitStatus)
			// Fold order is journal order.
			if e := entries[i]; e.Key() != key || class(e.Failed, e.Crashed, e.Hung, e.ExitStatus) != byKey[key] {
				t.Fatalf("workers=%d: journal entry %d = %s %s, record = %s %s", workers, i,
					e.Key(), class(e.Failed, e.Crashed, e.Hung, e.ExitStatus), key, byKey[key])
			}
		}
		return byKey
	}
	sequential, batched := session(1), session(2)
	for key, want := range sequential {
		if got := batched[key]; got != want {
			t.Errorf("scenario %s: batched session folded %q, sequential %q", key, got, want)
		}
	}
}

// TestReproScriptReplaysACmdTarget: a cmd: target's repro script
// (explore --out's repro/NNNN.sh) replays. Its exec line, split into
// words as /bin/sh splits it, is an `afex replay` command line that
// runs — the target's {test} placeholder stays inside --target.
func TestReproScriptReplaysACmdTarget(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	if err := noFailures(cmdExplore(crashyArgs("--algorithm", "exhaustive", "--iterations", "0", "--out", dir))); err != nil {
		t.Fatal(err)
	}
	scripts, err := filepath.Glob(filepath.Join(dir, "repro", "*.sh"))
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no repro scripts written: %v", err)
	}
	replayed := 0
	for _, path := range scripts {
		script, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(script), "hung=true") {
			continue // would wait out the default timeout
		}
		_, line, ok := strings.Cut(string(script), "\nexec afex replay ")
		if !ok {
			t.Fatalf("%s has no exec line:\n%s", path, script)
		}
		words, err := exec.Command("/bin/sh", "-c", "set -- "+strings.TrimSpace(line)+`; printf '%s\0' "$@"`).Output()
		if err != nil {
			t.Fatalf("/bin/sh could not split %q: %v", line, err)
		}
		args := strings.Split(strings.TrimSuffix(string(words), "\x00"), "\x00")
		if err := cmdReplay(args); err != nil {
			t.Fatalf("%s: afex replay %q: %v", path, args, err)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("every representative hung; nothing replayed")
	}
}

// TestProcessSessionReportsBlocksNotAZeroPercent: a cmd: target does not
// say how many blocks it has, so its session report counts the distinct
// blocks the fixture covered instead of printing a 0.00% coverage.
func TestProcessSessionReportsBlocksNotAZeroPercent(t *testing.T) {
	space, err := afex.ParseSpace(crashySpace)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := afex.ParseCommandSpec("cmd:" + crashyBin + " {test}")
	if err != nil {
		t.Fatal(err)
	}
	eng, closeStore, err := afex.NewSession(afex.Options{
		Command: spec, Space: space, Algorithm: afex.Exhaustive, Procs: 2, ExecTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunLocal()
	if err := closeStore(); err != nil {
		t.Fatal(err)
	}
	report := res.Report(0)
	want := fmt.Sprintf("  coverage      %d blocks\n", res.Blocks)
	if res.Blocks == 0 || !strings.Contains(report, want) || strings.Contains(report, "0.00%") {
		t.Fatalf("%d blocks covered; the report says:\n%s", res.Blocks, report)
	}
}
