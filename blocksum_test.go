package afex

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
)

// The fold skips the walk of a coverage set it has already folded,
// recognised by content sum and size. These tests hold that shortcut to
// the fold without it, through the core.Executor seam: sumless zeroes
// the sum of every outcome, so every fold walks, as every fold did before
// there was a sum. Whatever can be observed of a session — records,
// coverage, journal and snapshot bytes — must not tell the two apart.

type sumless struct{ core.Executor }

func (z sumless) Execute(c explore.Candidate) (core.Record, prog.Outcome) {
	rec, out := z.Executor.Execute(c)
	out.BlockSum = 0
	return rec, out
}

// foldSession runs opts to the end, with the outcomes' sums or without.
func foldSession(t *testing.T, opts Options, sums bool) (*Result, Snapshot) {
	t.Helper()
	opts.StateStamp = "run"
	eng, cleanup, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	exec := eng.LocalExecutor()
	if !sums {
		exec = sumless{exec}
	}
	eng.RunWith(exec)
	res, snap := eng.Finish(), eng.Snapshot()
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
	return res, snap
}

// blockSets tells distinct coverage sets apart by their sorted ids, and
// fails the test if two of them ever share a content sum.
type blockSets map[uint64]string

func (s blockSets) note(t *testing.T, out prog.Outcome) {
	t.Helper()
	if len(out.Blocks) == 0 {
		return
	}
	ids := make([]int, 0, len(out.Blocks))
	for b := range out.Blocks {
		ids = append(ids, b)
	}
	sort.Ints(ids)
	set, sum := fmt.Sprint(ids), prog.SumBlocks(out.Blocks)
	if other, seen := s[sum]; seen && other != set {
		t.Fatalf("sets %s and %s share the sum %#x", other, set, sum)
	}
	s[sum] = set
}

// checkFold recounts a finished session the slow way, in fold order: the
// blocks no earlier record covered are each record's NewBlocks, their
// union is the session's coverage, its recovery blocks the recovery
// coverage. That holds under any schedule, so it is the oracle for
// parallel sessions, where no two runs fold in the same order. It also
// counts what the shortcut should have cost: one walk per distinct
// (sum, size) among the records folded by this engine (from on), none
// saved without sums.
func checkFold(t *testing.T, target *System, res *Result, snap Snapshot, sums bool, from int, all blockSets) {
	t.Helper()
	recovery := map[int]struct{}{}
	for _, r := range target.Routines {
		for _, op := range r.Ops {
			if op.RecoveryBlock != 0 {
				recovery[op.RecoveryBlock] = struct{}{}
			}
		}
	}
	covered, recovered := map[int]struct{}{}, 0
	pairs := map[[2]uint64]bool{}
	for i := range res.Records {
		rec := &res.Records[i]
		fresh := 0
		for b := range rec.Outcome.Blocks {
			if _, seen := covered[b]; !seen {
				covered[b] = struct{}{}
				fresh++
				if _, isRec := recovery[b]; isRec {
					recovered++
				}
			}
		}
		if res.Base() == 0 && rec.NewBlocks != fresh {
			t.Fatalf("record %d (%s): NewBlocks %d, a recount says %d", rec.ID, rec.Scenario, rec.NewBlocks, fresh)
		}
		if want := prog.SumBlocks(rec.Outcome.Blocks); rec.ID >= from && sums != (rec.Outcome.BlockSum == want) && want != 0 {
			t.Fatalf("record %d: sum %#x, its set sums to %#x (sums %v)", rec.ID, rec.Outcome.BlockSum, want, sums)
		}
		if rec.ID >= from && len(rec.Outcome.Blocks) > 0 {
			pairs[[2]uint64{rec.Outcome.BlockSum, uint64(len(rec.Outcome.Blocks))}] = true
		}
		all.note(t, rec.Outcome)
	}
	if res.Base() == 0 {
		if want := float64(len(covered)) / float64(target.NumBlocks); res.Coverage != want || snap.Coverage != want {
			t.Errorf("coverage %v (snapshot %v), a recount says %v", res.Coverage, snap.Coverage, want)
		}
		if want := float64(recovered) / float64(len(recovery)); res.RecoveryCoverage != want {
			t.Errorf("recovery coverage %v, a recount says %v", res.RecoveryCoverage, want)
		}
	}
	folded := res.Executed - from
	wantWalks, wantSets := len(pairs), len(pairs)
	if !sums {
		wantWalks, wantSets = folded, 0
	}
	empty := 0
	for i := range res.Records {
		if rec := &res.Records[i]; rec.ID >= from && len(rec.Outcome.Blocks) == 0 {
			empty++
		}
	}
	if sums {
		wantWalks += empty // an empty set has no sum: its fold walks nothing, every time
	}
	if snap.BlockWalks != wantWalks || snap.BlockSets != wantSets {
		t.Errorf("%d folds walked %d times over %d remembered sets; want %d walks and %d sets (sums %v)",
			folded, snap.BlockWalks, snap.BlockSets, wantWalks, wantSets, sums)
	}
}

// sameRecords compares two sessions that folded the same candidates in
// the same order: everything but the sum itself must be equal.
func sameRecords(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Records) != len(want.Records) || got.Base() != want.Base() {
		t.Fatalf("%d records from %d, want %d from %d", len(got.Records), got.Base(), len(want.Records), want.Base())
	}
	for i := range got.Records {
		g, w := got.Records[i], want.Records[i]
		g.Outcome.BlockSum, w.Outcome.BlockSum = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d diverges:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if got.Coverage != want.Coverage || got.RecoveryCoverage != want.RecoveryCoverage ||
		got.UniqueFailures != want.UniqueFailures || got.UniqueCrashes != want.UniqueCrashes {
		t.Fatalf("coverage %v/%v and %d/%d clusters, want %v/%v and %d/%d", got.Coverage, got.RecoveryCoverage,
			got.UniqueFailures, got.UniqueCrashes, want.Coverage, want.RecoveryCoverage, want.UniqueFailures, want.UniqueCrashes)
	}
}

// sameState compares what two sessions left on disk: journal bytes,
// snapshot bytes (wall clock pinned) and the snapshot's covered and
// recovered blocks as sets.
func sameState(t *testing.T, got, want string) {
	t.Helper()
	for _, name := range []string{"journal.jsonl", "journal.afexj"} {
		g, gerr := os.ReadFile(filepath.Join(got, name))
		w, werr := os.ReadFile(filepath.Join(want, name))
		if (gerr == nil) != (werr == nil) || !bytes.Equal(g, w) {
			t.Fatalf("%s differs: %d bytes (%v), want %d (%v)", name, len(g), gerr, len(w), werr)
		}
	}
	gs, ws := loadSnapshot(t, got), loadSnapshot(t, want)
	if !reflect.DeepEqual(gs.Covered, ws.Covered) || !reflect.DeepEqual(gs.Recovered, ws.Recovered) || len(gs.Covered) == 0 {
		t.Fatalf("snapshots cover %v / %v, want %v / %v", gs.Covered, gs.Recovered, ws.Covered, ws.Recovered)
	}
	if g, w := snapshotBytes(t, got), snapshotBytes(t, want); !bytes.Equal(g, w) {
		t.Fatalf("snapshot bytes differ (%d vs %d)", len(g), len(w))
	}
}

func TestFoldSkipIsExact(t *testing.T) {
	all := blockSets{}
	for _, name := range []string{"mysqld", "coreutils", "httpd"} {
		target, err := Target(name)
		if err != nil {
			t.Fatal(err)
		}
		space := SpaceFor(target, 12, 0, 40)
		for _, algo := range []string{FitnessGuided, Portfolio} {
			const total, killAt = 1200, 500
			base := Options{Target: target, Space: space, Algorithm: algo, Iterations: total, Feedback: true, Explore: ExploreOptions{Seed: 9}}
			t.Run(name+"/"+algo+"/sequential", func(t *testing.T) {
				for _, format := range []string{JournalJSONL, JournalBinary} {
					with, without := base, base
					with.StateDir, without.StateDir = t.TempDir(), t.TempDir()
					with.JournalFormat, without.JournalFormat = format, format
					got, gotSnap := foldSession(t, with, true)
					want, wantSnap := foldSession(t, without, false)
					checkFold(t, target, got, gotSnap, true, 0, all)
					checkFold(t, target, want, wantSnap, false, 0, all)
					sameRecords(t, got, want)
					sameState(t, with.StateDir, without.StateDir)
					t.Logf("%s: %d of %d folds walked", format, gotSnap.BlockWalks, total)
				}
			})
			t.Run(name+"/"+algo+"/parallel", func(t *testing.T) {
				for _, sums := range []bool{true, false} {
					opts := base
					opts.Workers, opts.Batch = 4, 8
					res, snap := foldSession(t, opts, sums)
					if res.Executed != total {
						t.Fatalf("executed %d of %d", res.Executed, total)
					}
					checkFold(t, target, res, snap, sums, 0, all)
				}
			})
			t.Run(name+"/"+algo+"/resumed", func(t *testing.T) {
				// One session killed mid-way, its state directory resumed twice:
				// with sums and without — from the whole jsonl journal, and
				// from snapshot plus tail of the binary one. The restored
				// engine starts with nothing remembered: what it folds is
				// walked once per distinct set, whatever the first run had
				// seen, and the two resumes must not be told apart.
				for _, format := range []string{JournalJSONL, JournalBinary} {
					opts := base
					opts.StateDir, opts.JournalFormat = t.TempDir(), format
					killedSession(t, opts, killAt)
					with, without := opts, opts
					with.StateDir, without.StateDir = copyStateDir(t, opts.StateDir), copyStateDir(t, opts.StateDir)
					with.Resume, without.Resume = true, true
					got, gotSnap := foldSession(t, with, true)
					want, wantSnap := foldSession(t, without, false)
					if got.Executed != total || gotSnap.Resume == nil || (got.Base() > 0) != (format == JournalBinary) {
						t.Fatalf("%s: resumed from base %d to %d executed (%+v)", format, got.Base(), got.Executed, gotSnap.Resume)
					}
					restored := got.Base() + gotSnap.Resume.Entries
					checkFold(t, target, got, gotSnap, true, restored, all)
					checkFold(t, target, want, wantSnap, false, restored, all)
					sameRecords(t, got, want)
					sameState(t, with.StateDir, without.StateDir)
				}
			})
		}
	}
	if len(all) < 300 {
		t.Errorf("only %d distinct sets crossed the oracle", len(all))
	}
}

// TestBlockSumsOfTheModelWorkloads: the distinct coverage sets of the two
// model benchmark configurations (mysqld and coreutils over their
// harness spaces, a fifth of the budget) all have different sums, and
// replaying a journal gives every outcome the sum its producer computed.
func TestBlockSumsOfTheModelWorkloads(t *testing.T) {
	all := blockSets{}
	for _, w := range []struct {
		target  string
		callHi  int
		scripts int
	}{{"mysqld", 2000, 10000}, {"coreutils", 5000, 30000}} {
		target, err := Target(w.target)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Target: target, Space: SpaceFor(target, 19, 1, w.callHi), Algorithm: FitnessGuided, Feedback: true,
			Iterations: w.scripts, Explore: ExploreOptions{Seed: 1}}
		if testing.Short() {
			opts.Iterations /= 10
		}
		res, snap := foldSession(t, opts, true)
		checkFold(t, target, res, snap, true, 0, all)
		t.Logf("%s: %d scenarios, %d distinct sets, %d walks", w.target, res.Executed, snap.BlockSets, snap.BlockWalks)
	}
	t.Logf("%d distinct sets, no two with one sum", len(all))
}

// TestForgedSumIsWalked: two outcomes claim one sum but differ in size;
// the second must be walked, its blocks counted. With the size equal too
// the engine has no way to tell (that is what the 64-bit sum is trusted
// for), so the test pins where the trust ends.
func TestForgedSumIsWalked(t *testing.T) {
	target, err := Target("coreutils")
	if err != nil {
		t.Fatal(err)
	}
	space := faultspace.NewUnion(faultspace.New("s", faultspace.IntAxis("testID", 0, 9),
		faultspace.SetAxis("function", "malloc"), faultspace.IntAxis("callNumber", 1, 1)))
	eng, err := core.NewEngine(core.Config{Target: target, Space: space, Algorithm: "exhaustive"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := []prog.Outcome{
		{Blocks: map[int]struct{}{1: {}, 2: {}}, BlockSum: 42},
		{Blocks: map[int]struct{}{1: {}, 2: {}, 3: {}}, BlockSum: 42}, // forged: same sum, one more block
		{Blocks: map[int]struct{}{1: {}, 2: {}}, BlockSum: 42},        // a true repeat
		{Blocks: map[int]struct{}{4: {}}},                             // no sum: walked
		{Blocks: map[int]struct{}{4: {}, 5: {}}},                      // no sum again: still walked
	}
	wantNew := []int{2, 1, 0, 1, 1}
	cands := eng.Lease(len(outcomes))
	if len(cands) != len(outcomes) {
		t.Fatalf("leased %d candidates", len(cands))
	}
	for i, out := range outcomes {
		eng.FoldBatch([]core.ExecutedTest{{C: cands[i], Out: out}})
	}
	res, snap := eng.Finish(), eng.Snapshot()
	for i, rec := range res.Records {
		if rec.NewBlocks != wantNew[i] {
			t.Errorf("outcome %d: NewBlocks %d, want %d", i, rec.NewBlocks, wantNew[i])
		}
	}
	if snap.BlockWalks != 4 || snap.BlockSets != 2 {
		t.Errorf("%d walks over %d remembered sets, want 4 and 2", snap.BlockWalks, snap.BlockSets)
	}
}
