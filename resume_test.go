package afex

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"afex/internal/backend"
	"afex/internal/inject"
)

// Crash-safe resume property tests. The contract of the persistent
// store (Options.StateDir):
//
//  1. a scenario key that reached the journal is never executed again —
//     not by a resumed run, not by any later run sharing the directory;
//  2. a sequential session killed after k folds and resumed with
//     --resume produces, merged, exactly the records an uninterrupted
//     run would have produced (the explorer's pool, sensitivity windows
//     and RNG stream all continue bit-for-bit).
//
// The "kill" is simulated by stopping the engine mid-run and abandoning
// it without Finish — the process state is discarded exactly as SIGKILL
// would discard it; only what the store wrote survives.

func resumeOptions(seed int64, n int, dir string) Options {
	target, err := Target("mysqld")
	if err != nil {
		panic(err)
	}
	return Options{
		Target:     target,
		Space:      SpaceFor(target, 10, 0, 5),
		Algorithm:  FitnessGuided,
		Iterations: n,
		Feedback:   true,
		StateDir:   dir,
		Explore:    ExploreOptions{Seed: seed},
	}
}

func TestCrashResumeProperty(t *testing.T) {
	const total = 120
	for _, seed := range []int64{1, 2, 3} {
		for _, killAt := range []int{1, 17, 59} {
			t.Run(fmt.Sprintf("seed=%d/kill=%d", seed, killAt), func(t *testing.T) {
				// Reference: one uninterrupted run, no persistence.
				ref, err := Explore(resumeOptions(seed, total, ""))
				if err != nil {
					t.Fatal(err)
				}

				// Interrupted: same session against a state dir, killed
				// after killAt folds. SnapshotEvery 1 pins the snapshot to
				// the kill point, which is what makes clause 2 exact; the
				// journal alone (coarser snapshots) still guarantees
				// clause 1.
				dir := t.TempDir()
				opts := resumeOptions(seed, total, dir)
				opts.SnapshotEvery = 1
				opts.StateStamp = "run-0"
				kill := killAt
				opts.Stop = func(s Snapshot) bool { return s.Executed >= kill }
				eng, cleanup, err := NewSession(opts)
				if err != nil {
					t.Fatal(err)
				}
				eng.RunWith(eng.LocalExecutor())
				// The crash: no Finish, no report — only the store's writes
				// survive. cleanup flushes them, standing in for the bytes
				// the dead process had already handed to the kernel.
				if err := cleanup(); err != nil {
					t.Fatal(err)
				}

				// Resume and run to completion.
				ropts := resumeOptions(seed, total, dir)
				ropts.Resume = true
				ropts.StateStamp = "run-1"
				res, err := Explore(ropts)
				if err != nil {
					t.Fatal(err)
				}

				if len(res.Records) != total {
					t.Fatalf("merged session has %d records, want %d", len(res.Records), total)
				}
				seen := make(map[string]bool, total)
				for _, rec := range res.Records {
					key := rec.Point.Key()
					if seen[key] {
						t.Fatalf("scenario %s executed twice", key)
					}
					seen[key] = true
				}
				if res.Executed != ref.Executed || res.Failed != ref.Failed ||
					res.Crashed != ref.Crashed || res.UniqueFailures != ref.UniqueFailures {
					t.Fatalf("merged tallies diverge from uninterrupted run:\n got executed=%d failed=%d crashed=%d unique=%d\nwant executed=%d failed=%d crashed=%d unique=%d",
						res.Executed, res.Failed, res.Crashed, res.UniqueFailures,
						ref.Executed, ref.Failed, ref.Crashed, ref.UniqueFailures)
				}
				for i := range ref.Records {
					a, b := ref.Records[i], res.Records[i]
					if a.Scenario != b.Scenario || a.Impact != b.Impact || a.Fitness != b.Fitness ||
						a.Cluster != b.Cluster || a.Outcome.Failed != b.Outcome.Failed ||
						a.Outcome.Crashed != b.Outcome.Crashed {
						t.Fatalf("record %d diverges from uninterrupted run:\n got %+v\nwant %+v", i, b, a)
					}
				}
				if res.Coverage != ref.Coverage || res.RecoveryCoverage != ref.RecoveryCoverage {
					t.Fatalf("coverage diverges: got %.4f/%.4f want %.4f/%.4f",
						res.Coverage, res.RecoveryCoverage, ref.Coverage, ref.RecoveryCoverage)
				}
			})
		}
	}
}

// TestCrashResumePortfolioProperty is the clause-2 equality test for the
// adaptive portfolio explorer, unsharded and sharded: a killed-and-
// resumed portfolio session must reproduce the uninterrupted run's
// records exactly — the bandit's per-arm pull counts, reward sums and
// arm RNG positions all continue where the snapshot left them.
func TestCrashResumePortfolioProperty(t *testing.T) {
	const total = 100
	for _, shards := range []int{0, 2} {
		for _, killAt := range []int{13, 57} {
			t.Run(fmt.Sprintf("shards=%d/kill=%d", shards, killAt), func(t *testing.T) {
				mkOpts := func(dir string) Options {
					o := resumeOptions(3, total, dir)
					o.Algorithm = Portfolio
					o.Shards = shards
					return o
				}
				ref, err := Explore(mkOpts(""))
				if err != nil {
					t.Fatal(err)
				}

				dir := t.TempDir()
				opts := mkOpts(dir)
				opts.SnapshotEvery = 1
				opts.StateStamp = "run-0"
				kill := killAt
				opts.Stop = func(s Snapshot) bool { return s.Executed >= kill }
				eng, cleanup, err := NewSession(opts)
				if err != nil {
					t.Fatal(err)
				}
				eng.RunWith(eng.LocalExecutor())
				if err := cleanup(); err != nil {
					t.Fatal(err)
				}

				ropts := mkOpts(dir)
				ropts.Resume = true
				ropts.StateStamp = "run-1"
				res, err := Explore(ropts)
				if err != nil {
					t.Fatal(err)
				}

				if res.Executed != total || len(res.Records) != total {
					t.Fatalf("merged session executed %d, want %d", res.Executed, total)
				}
				for i := range ref.Records {
					a, b := ref.Records[i], res.Records[i]
					if a.Scenario != b.Scenario || a.Impact != b.Impact || a.Fitness != b.Fitness {
						t.Fatalf("record %d diverges from uninterrupted portfolio run:\n got %q impact=%v fitness=%v\nwant %q impact=%v fitness=%v",
							i, b.Scenario, b.Impact, b.Fitness, a.Scenario, a.Impact, a.Fitness)
					}
				}
				// The bandit statistics themselves must match the
				// uninterrupted run's.
				if len(res.Arms) != len(ref.Arms) || len(res.Arms) == 0 {
					t.Fatalf("arm stats missing: got %+v want %+v", res.Arms, ref.Arms)
				}
				for i := range ref.Arms {
					if res.Arms[i] != ref.Arms[i] {
						t.Fatalf("arm %d stats diverge: got %+v want %+v", i, res.Arms[i], ref.Arms[i])
					}
				}
			})
		}
	}
}

// TestCrashResumeJournalFormats is the clause-2 equality test at the
// journal level, under both journal formats: a session killed after
// killAt folds and resumed must leave a journal entry-for-entry
// identical (modulo run stamp and wall-clock duration) to the journal
// of an uninterrupted run — and identical across formats, since the
// binary codec must carry exactly what the JSONL lines carry. The
// binary variant additionally asserts the resume took the indexed
// tail-seek path (Base() > 0) rather than silently refolding the whole
// journal.
func TestCrashResumeJournalFormats(t *testing.T) {
	const total, killAt, seed = 120, 59, 2

	// Reference: one uninterrupted persistent run, legacy format.
	refDir := t.TempDir()
	refOpts := resumeOptions(seed, total, refDir)
	refOpts.StateStamp = "ref"
	if _, err := Explore(refOpts); err != nil {
		t.Fatal(err)
	}
	refEntries, err := ReplayJournal(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(refEntries) != total {
		t.Fatalf("reference journal has %d entries, want %d", len(refEntries), total)
	}

	normalize := func(entries []JournalEntry) []JournalEntry {
		out := append([]JournalEntry(nil), entries...)
		for i := range out {
			out[i].Run = 0
			out[i].DurationNS = 0
		}
		return out
	}
	want := normalize(refEntries)

	for _, format := range []string{JournalJSONL, JournalBinary} {
		t.Run(format, func(t *testing.T) {
			dir := t.TempDir()
			opts := resumeOptions(seed, total, dir)
			opts.JournalFormat = format
			opts.SnapshotEvery = 1
			opts.StateStamp = "run-0"
			opts.Stop = func(s Snapshot) bool { return s.Executed >= killAt }
			eng, cleanup, err := NewSession(opts)
			if err != nil {
				t.Fatal(err)
			}
			eng.RunWith(eng.LocalExecutor())
			if err := cleanup(); err != nil {
				t.Fatal(err)
			}

			ropts := resumeOptions(seed, total, dir)
			ropts.JournalFormat = format
			ropts.Resume = true
			ropts.StateStamp = "run-1"
			res, err := Explore(ropts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Executed != total {
				t.Fatalf("merged session executed %d, want %d", res.Executed, total)
			}
			if format == JournalBinary {
				if res.Base() != killAt {
					t.Fatalf("binary resume has base %d, want the tail-seek path from snapshot %d", res.Base(), killAt)
				}
				if len(res.Records) != total-killAt {
					t.Fatalf("tail restore materialized %d records, want %d", len(res.Records), total-killAt)
				}
			}

			entries, err := ReplayJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := normalize(entries)
			if len(got) != len(want) {
				t.Fatalf("journal has %d entries, want %d", len(got), len(want))
			}
			seen := make(map[string]bool, total)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("journal entry %d diverges from uninterrupted run:\n got %+v\nwant %+v", i, got[i], want[i])
				}
				if seen[got[i].Key()] {
					t.Fatalf("scenario %s journaled twice", got[i].Key())
				}
				seen[got[i].Key()] = true
			}
		})
	}
}

// TestCrashResumeCoarseSnapshots: with the default snapshot cadence the
// kill point usually falls past the last snapshot, so resume replays the
// journal tail into the explorer. Exact record-for-record equality no
// longer holds (the RNG resumes from the snapshot), but the hard
// invariants must: no re-execution, full budget, and a merged result at
// least as diverse as the journal tail guarantees.
func TestCrashResumeCoarseSnapshots(t *testing.T) {
	const total, killAt = 90, 47
	dir := t.TempDir()
	opts := resumeOptions(7, total, dir)
	opts.SnapshotEvery = 20 // snapshots at 20 and 40; kill at 47 leaves a 7-record tail
	opts.Stop = func(s Snapshot) bool { return s.Executed >= killAt }
	eng, cleanup, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunWith(eng.LocalExecutor())
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}

	ropts := resumeOptions(7, total, dir)
	ropts.Resume = true
	res, err := Explore(ropts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != total || len(res.Records) != total {
		t.Fatalf("resumed session executed %d, want %d", res.Executed, total)
	}
	seen := make(map[string]bool, total)
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("scenario %s executed twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
}

// TestCrashResumeParallelWorkers: the persistence path under the
// concurrent engine (batched leases, reducer folding, async journal
// writer) — run under -race in CI. Parallel sessions are not
// bit-reproducible, so the assertions are the hard invariants only.
func TestCrashResumeParallelWorkers(t *testing.T) {
	const total, killAt = 140, 63
	dir := t.TempDir()
	opts := resumeOptions(5, total, dir)
	opts.Workers = 4
	opts.Batch = 8
	opts.Stop = func(s Snapshot) bool { return s.Executed >= killAt }
	eng, cleanup, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunWith(eng.LocalExecutor())
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}

	ropts := resumeOptions(5, total, dir)
	ropts.Resume = true
	ropts.Workers = 4
	res, err := Explore(ropts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != total {
		t.Fatalf("resumed parallel session executed %d, want %d", res.Executed, total)
	}
	seen := make(map[string]bool, total)
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("scenario %s executed twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
	entries, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != total {
		t.Fatalf("journal has %d entries, want %d", len(entries), total)
	}
}

// TestPersistentCoordinatorResume: a killed-and-restarted distributed
// coordinator continues the same session — remote managers never
// re-execute a journaled scenario, and the final result set spans both
// incarnations.
func TestPersistentCoordinatorResume(t *testing.T) {
	target, err := Target("coreutils")
	if err != nil {
		t.Fatal(err)
	}
	space := SpaceFor(target, 8, 0, 3)
	dir := t.TempDir()

	runServe := func(budget int, resume bool) *Result {
		coord, cleanup, err := NewCoordinatorWithOptions(CoordinatorOptions{
			TargetName: target.Name,
			Space:      space,
			Algorithm:  FitnessGuided,
			Explore:    ExploreOptions{Seed: 9},
			Budget:     budget,
			Shards:     2,
			StateDir:   dir,
			Resume:     resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ServeCoordinator("127.0.0.1:0", coord)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		mgr, err := DialManager(srv.Addr(), "m1", target)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		if _, err := mgr.RunUntilDone(); err != nil {
			t.Fatal(err)
		}
		res := coord.Result()
		if err := cleanup(); err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := runServe(30, false)
	if first.Executed != 30 {
		t.Fatalf("first serve session executed %d, want 30", first.Executed)
	}
	merged := runServe(75, true)
	if merged.Executed != 75 {
		t.Fatalf("restarted serve session executed %d total, want 75", merged.Executed)
	}
	entries, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 75 {
		t.Fatalf("journal has %d entries, want 75", len(entries))
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		if seen[e.Key()] {
			t.Fatalf("scenario %s leased twice across serve incarnations", e.Key())
		}
		seen[e.Key()] = true
		// Managers report outcomes, not plans; the coordinator must
		// rebuild the armed plan from the scenario so `afex replay` can
		// reproduce serve-mode failures.
		if e.Failed && !e.Skipped && len(e.Plan) == 0 {
			t.Fatalf("serve journal entry %d (failed) has no injection plan", e.Seq)
		}
	}
}

// TestStateDirNoveltyWithoutResume: two independent runs (no --resume)
// sharing a state dir must spend their budgets on disjoint scenarios —
// the cross-run novelty property: equal budget, strictly more distinct
// scenarios than either run alone.
func TestStateDirNoveltyWithoutResume(t *testing.T) {
	dir := t.TempDir()
	first, err := Explore(resumeOptions(11, 50, dir))
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 50 {
		t.Fatalf("first run executed %d, want 50", first.Executed)
	}
	// Same seed, same everything: without the store this run would
	// re-execute the identical 50 scenarios.
	second, err := Explore(resumeOptions(11, 100, dir))
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 100 {
		t.Fatalf("cumulative session executed %d, want 100", second.Executed)
	}
	seen := make(map[string]bool)
	for _, rec := range second.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("scenario %s executed twice across runs", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
	if len(seen) != 100 {
		t.Fatalf("cumulative session covered %d distinct scenarios, want 100", len(seen))
	}
}

// TestNonFiniteScoreFoldsAsZero: a Score callback that returns NaN once
// and +Inf once, in a store-backed fitness session of either journal
// format, costs those two scenarios their impact and nothing else: the
// session finishes its budget, every scenario is journaled with a
// finite impact, and the session leaves a snapshot. A non-finite value
// reaching the journal would fail its encoding and the session with it.
func TestNonFiniteScoreFoldsAsZero(t *testing.T) {
	const total = 3000
	target, err := Target("coreutils")
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{JournalJSONL, JournalBinary} {
		t.Run(format, func(t *testing.T) {
			dir, calls := t.TempDir(), 0
			res, err := Explore(Options{
				Target:        target,
				Space:         SpaceFor(target, 19, 0, 9),
				Algorithm:     FitnessGuided,
				Iterations:    total,
				StateDir:      dir,
				JournalFormat: format,
				Explore:       ExploreOptions{Seed: 1},
				Impact: ImpactOptions{Score: func(out Outcome, newBlocks int, _ inject.Plan, _ int) float64 {
					switch calls++; calls {
					case 50:
						return math.NaN()
					case 100:
						return math.Inf(1)
					}
					if out.Failed {
						return 10 + float64(newBlocks)
					}
					return float64(newBlocks)
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Executed != total {
				t.Fatalf("executed %d, want %d", res.Executed, total)
			}
			entries, err := ReplayJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != total {
				t.Fatalf("journal holds %d entries, want %d", len(entries), total)
			}
			for i, e := range entries {
				if math.IsNaN(e.Impact) || math.IsInf(e.Impact, 0) || math.IsNaN(e.Fitness) || math.IsInf(e.Fitness, 0) {
					t.Fatalf("entry %d: impact %v, fitness %v", i, e.Impact, e.Fitness)
				}
			}
			for _, i := range []int{49, 99} {
				if entries[i].Impact != 0 {
					t.Fatalf("entry %d: impact %v, want the non-finite score folded as 0", i, entries[i].Impact)
				}
			}
			loadSnapshot(t, dir)
		})
	}
}

// TestPrecisionAfterTailResume: after a binary session resumes from its
// snapshot and the journal tail, Records starts at Base(), so a record's
// ID is no index into it. Measuring precision stamps each measured
// representative's own record, and no other.
func TestPrecisionAfterTailResume(t *testing.T) {
	const total, killAt = 200, 90
	dir := t.TempDir()
	opts := resumeOptions(3, total, dir)
	opts.JournalFormat = JournalBinary
	opts.SnapshotEvery = 1
	opts.Stop = func(s Snapshot) bool { return s.Executed >= killAt }
	eng, cleanup, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunWith(eng.LocalExecutor())
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
	ropts := resumeOptions(3, total, dir)
	ropts.Resume = true
	res, err := Explore(ropts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Base() != killAt {
		t.Fatalf("resume has base %d, want the tail restore from snapshot %d", res.Base(), killAt)
	}
	runner, err := backend.New(backend.Model, backend.Config{Target: ropts.Target})
	if err != nil {
		t.Fatal(err)
	}
	reps := res.MeasurePrecision(runner, DefaultImpact(), 3)
	if len(reps) == 0 {
		t.Fatal("no representative past the restore base")
	}
	measured := make(map[int]float64, len(reps))
	for _, rec := range reps {
		measured[rec.ID] = rec.Precision
	}
	for _, rec := range res.Records {
		if want, ok := measured[rec.ID]; rec.Precision != want || ok && want == 0 {
			t.Fatalf("record %d has precision %v, measured %v (measured: %t)", rec.ID, rec.Precision, want, ok)
		}
	}
}

// TestStateMetaOnlyReads: a state directory's metadata reads while a
// live session holds the directory, and a missing path is left as it
// was.
func TestStateMetaOnlyReads(t *testing.T) {
	dir := t.TempDir()
	opts := resumeOptions(1, 10, dir)
	_, cleanup, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := StateMeta(dir)
	if cerr := cleanup(); err == nil {
		err = cerr
	}
	if err != nil || meta.Target != "mysqld" {
		t.Fatalf("metadata of a held directory: %+v, %v", meta, err)
	}
	missing := filepath.Join(t.TempDir(), "none")
	if _, err := StateMeta(missing); err == nil {
		t.Fatal("a missing state directory has metadata")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("reading the metadata of a missing directory created it (%v)", err)
	}
}
