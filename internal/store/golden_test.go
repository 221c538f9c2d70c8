package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"afex/internal/backend"
	"afex/internal/cluster"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/libc"
	"afex/internal/prog"
)

// The bytes the writer produces are pinned by files under
// testdata/golden, written by the writer this one replaced from the fixed
// records and state below: a binary directory's journal and snapshot, and
// a JSONL journal.

// goldenRecords is a fixed record list with the edge cases an entry has:
// an empty block set, a nil stack, a non-model backend, a skipped record,
// a multi-fault plan and an empty fault.
func goldenRecords() ([]explore.Candidate, []core.Record) {
	var cands []explore.Candidate
	var recs []core.Record
	for i := 0; i < 12; i++ {
		c, rec := testRecord(i)
		rec.Backend = backend.Model
		rec.Relevance = float64(i) / 3
		switch i {
		case 1:
			rec.Outcome.Blocks = map[int]struct{}{}
		case 2:
			rec.Outcome.InjectionStack, rec.Outcome.Injected = nil, false
			c.ParentKey, c.MutatedAxis = "", -1
		case 3:
			rec.Backend, rec.ExitStatus, rec.Duration = "process", "signal:killed", 1234567
			rec.Outcome.Crashed, rec.Outcome.Hung, rec.Outcome.CrashID = true, true, "SIGSEGV@read"
		case 4:
			rec.Skipped, rec.Plan, rec.Outcome = true, inject.Plan{}, prog.Outcome{}
			rec.Impact, rec.Fitness, rec.Cluster = 0, 0, -1
		case 5:
			rec.Plan = inject.Plan{Faults: []inject.Fault{
				{Function: "open", CallNumber: 1, Err: libc.ErrorReturn{Errno: "ENOENT", Retval: -1}},
				{Function: "read", CallNumber: 3, Err: libc.ErrorReturn{Errno: "EIO", Retval: -1}},
				{Function: "close", CallNumber: 2},
			}}
			rec.Shard = 2
		case 6:
			c.Point = faultspace.Point{Sub: 1, Fault: faultspace.Fault{}}
			rec.Point = c.Point
		case 7:
			rec.Backend = ""
		}
		cands, recs = append(cands, c), append(recs, rec)
	}
	return cands, recs
}

// goldenKeys is the fixed executed-key list of goldenState: more keys
// than one write chunk of a key-list frame holds.
func goldenKeys() []string {
	keys := make([]string, 3000)
	for i := range keys {
		keys[i] = fmt.Sprintf("%d:%d,%d,%d", i%2, i, i%17, i%5)
	}
	return keys
}

// goldenState is a fixed session state at seq with three cluster sets
// and several key lists, one of them a repeat of an earlier one.
func goldenState(seq int) *core.SessionState {
	keys := goldenKeys()
	all, fail, crash := cluster.NewSet(1), cluster.NewSet(1), cluster.NewSet(2)
	for i := 0; i < 40; i++ {
		stack := []string{"main", fmt.Sprintf("dispatch_%d", i%6), fmt.Sprintf("site_%d", i%9)}
		if i%11 == 0 {
			stack = nil
		}
		all.Add(i, stack)
		if i%3 == 0 {
			fail.Add(i, stack)
		}
		if i%5 == 0 {
			crash.Add(i, stack)
		}
	}
	reversed := slices.Clone(keys)
	slices.Reverse(reversed)
	flat := func(keys []string) *explore.State {
		return &explore.State{Algorithm: "random", Searches: []explore.SearchState{{History: explore.NewKeySet(keys).Keys()}}}
	}
	return &core.SessionState{
		Seq:           seq,
		Elapsed:       987654321,
		Covered:       []int{1, 2, 3, 5, 8},
		Recovered:     []int{2},
		AllStacks:     all.ExportState(),
		FailClusters:  fail.ExportState(),
		CrashClusters: crash.ExportState(),
		Aggregates: &core.Aggregates{Injected: 2900, Failed: 1000, Crashed: 40, Hung: 3, Holes: 1,
			CrashIDs: map[string]int{"SIGSEGV@read": 30, "SIGABRT@close": 10}, SeenKeys: explore.NewKeySet(keys).Keys()},
		Explorer: &explore.State{Algorithm: "sharded-portfolio", RR: 1, Shards: []*explore.State{
			{Algorithm: "portfolio", Seen: explore.NewKeySet(keys).Keys(), MaxFitness: 12.5, Arms: []explore.ArmSnapshot{
				{Name: "fitness", Pulls: 2, State: flat(keys[:100])},
				{Name: "random", State: flat(nil)},
			}},
			nil,
			flat(reversed),
		}},
	}
}

// writeGolden journals goldenRecords into a new directory of the given
// format through a store and, for the binary format, snapshots
// goldenState behind them; it returns the directory.
func writeGolden(t testing.TB, format string) string {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{Format: format})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("demo", "sig", "2026-08-08T00:00:00Z"); err != nil {
		t.Fatal(err)
	}
	cands, recs := goldenRecords()
	for i := range recs {
		s.JournalRecord(cands[i], recs[i])
	}
	if format == FormatBinary {
		s.SnapshotSession(goldenState(len(recs)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// goldenFiles names each pinned file under testdata/golden with the
// format of the directory it is read from there.
var goldenFiles = []struct{ format, name string }{
	{FormatBinary, binJournalName},
	{FormatBinary, snapshotName},
	{FormatJSONL, journalName},
}

// TestWritersMatchGoldens: the journal of either format and the snapshot
// a store writes are byte for byte what the writer before this one wrote
// for the same records and state.
func TestWritersMatchGoldens(t *testing.T) {
	dirs := map[string]string{FormatBinary: writeGolden(t, FormatBinary), FormatJSONL: writeGolden(t, FormatJSONL)}
	for _, g := range goldenFiles {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", g.name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dirs[g.format], g.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: %d bytes, want %d; first difference at byte %d", g.name, len(got), len(want), i)
		}
	}
	// The state is what the golden is meant to hold: three sets, a list
	// written as a reference, and key lists longer than the 16 KiB chunks
	// earlier writers encoded a list in.
	_, file, err := readSnapshot(dirs[FormatBinary], snapFull)
	if err != nil || file.format != SnapshotFramed || file.refs == 0 || file.sets == 0 || file.pos == 0 || file.keys < 3*(16<<10) {
		t.Fatalf("golden snapshot reads as %+v (%v)", file, err)
	}
}
