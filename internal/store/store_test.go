package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/prog"
)

func testRecord(id int) (explore.Candidate, core.Record) {
	c := explore.Candidate{
		Point:       faultspace.Point{Sub: 0, Fault: faultspace.Fault{id, id % 3, id % 5}},
		MutatedAxis: id % 3,
		ParentKey:   "0:1,2,3",
	}
	rec := core.Record{
		ID:       id,
		Point:    c.Point,
		Scenario: "testID 1 function read callNumber 2",
		TestID:   1,
		Plan:     inject.Single(inject.Fault{Function: "read", CallNumber: 2}),
		Outcome: prog.Outcome{
			Injected:       true,
			Failed:         id%2 == 0,
			InjectionStack: []string{"main", "serve", "read"},
			Blocks:         map[int]struct{}{1: {}, 2: {}, id%7 + 3: {}},
		},
		NewBlocks: 1,
		Impact:    float64(10 + id),
		Fitness:   float64(10 + id),
		Cluster:   id % 4,
		Shard:     -1,
	}
	return c, rec
}

// entryFrom is the entry the writer journals for one record, filled the
// way the writer fills its own, over block storage of its own.
func entryFrom(run int, c explore.Candidate, rec core.Record) *Entry {
	e := new(Entry)
	e.fill(run, &c, &rec, nil)
	return e
}

// TestJournalRoundTrip: entries written through the async writer come
// back as equivalent records, in order.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("demo", "sig", "2026-07-30T00:00:00Z"); err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		c, rec := testRecord(i)
		s.JournalRecord(c, rec)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if m := s2.Meta(); m.Target != "demo" || m.Runs != 1 || m.Stamps[0] != "2026-07-30T00:00:00Z" {
		t.Fatalf("meta did not round-trip: %+v", m)
	}
	entries, err := s2.LoadEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("journal has %d entries, want %d", len(entries), n)
	}
	for i, e := range entries {
		_, want := testRecord(i)
		got := e.Record()
		if got.ID != i || got.Scenario != want.Scenario || got.Impact != want.Impact ||
			got.Cluster != want.Cluster || len(got.Outcome.Blocks) != len(want.Outcome.Blocks) ||
			got.Plan.Faults[0] != want.Plan.Faults[0] {
			t.Fatalf("entry %d did not round-trip:\n got %+v\nwant %+v", i, got, want)
		}
		if e.Feedback().C.MutatedAxis != i%3 {
			t.Fatalf("entry %d lost mutation provenance", i)
		}
	}
}

// TestBeginRejectsMismatch: a state directory refuses runs against a
// different space or target.
func TestBeginRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("demo", "sigA", ""); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, _ := Open(dir)
	if err := s2.Begin("demo", "sigB", ""); err == nil {
		t.Fatal("space signature mismatch accepted")
	}
	if err := s2.Begin("other", "sigA", ""); err == nil {
		t.Fatal("target mismatch accepted")
	}
	if err := s2.Begin("demo", "sigA", ""); err != nil {
		t.Fatalf("matching run rejected: %v", err)
	}
	s2.Close()
}

// TestTornTailDropped: a crash can tear the journal's final line; the
// loader must drop it and keep everything before it.
func TestTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Begin("demo", "sig", "")
	for i := 0; i < 10; i++ {
		c, rec := testRecord(i)
		s.JournalRecord(c, rec)
	}
	s.Close()

	path := filepath.Join(dir, "journal.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 {
		t.Fatalf("torn journal loaded %d entries, want 9", len(entries))
	}
}

// TestTornTailRepairedOnOpen: appending after a crash must not fuse the
// torn tail with the next entry into permanent mid-file corruption —
// Open truncates the torn bytes before the journal reopens for append,
// so a crash → resume → replay cycle keeps the journal readable.
func TestTornTailRepairedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Begin("demo", "sig", "")
	for i := 0; i < 10; i++ {
		c, rec := testRecord(i)
		s.JournalRecord(c, rec)
	}
	s.Close()

	path := filepath.Join(dir, "journal.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	// "Resume": reopen and append more entries after the torn tail.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.Begin("demo", "sig", "")
	for i := 9; i < 15; i++ {
		c, rec := testRecord(i)
		rec.ID = i
		s2.JournalRecord(c, rec)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("journal unreadable after crash+resume: %v", err)
	}
	if len(entries) != 15 {
		t.Fatalf("journal has %d entries, want 15 (9 surviving + 6 appended)", len(entries))
	}
	for i, e := range entries {
		if e.Seq != i {
			t.Fatalf("entry %d has seq %d — torn tail fused with an append", i, e.Seq)
		}
	}
}

// TestRecoverSnapshotAheadOfJournal: a snapshot claiming more records
// than the journal holds must be discarded, not trusted.
func TestRecoverSnapshotAheadOfJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Begin("demo", "sig", "")
	for i := 0; i < 5; i++ {
		c, rec := testRecord(i)
		s.JournalRecord(c, rec)
	}
	s.SnapshotSession(&core.SessionState{Seq: 99})
	s.Close()

	s2, _ := Open(dir)
	defer s2.Close()
	r, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || len(r.Records) != 5 {
		t.Fatalf("recover: %+v", r)
	}
	if r.State != nil {
		t.Fatal("over-claiming snapshot was not discarded")
	}
	if len(r.Tail) != 5 {
		t.Fatalf("journal-only recovery should replay all %d records, got %d", 5, len(r.Tail))
	}
}

// TestRecoverEmpty: an empty directory recovers to nil (fresh session).
func TestRecoverEmpty(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Fatalf("empty store recovered %+v", r)
	}
}

// TestEntryBackendFieldsRoundTrip: the execution metadata the process
// backend stamps on records — backend name, exit disposition, wall
// clock — journals and restores intact, so process-backend sessions
// resume and replay with the same fidelity model ones do.
func TestEntryBackendFieldsRoundTrip(t *testing.T) {
	c, rec := testRecord(3)
	rec.Backend = "process"
	rec.ExitStatus = "signal:killed"
	rec.Duration = 123 * time.Millisecond

	e := entryFrom(0, c, rec)
	if e.Backend != "process" || e.ExitStatus != "signal:killed" || e.DurationNS != int64(123*time.Millisecond) {
		t.Fatalf("entry = backend %q exit %q duration %d", e.Backend, e.ExitStatus, e.DurationNS)
	}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Entry
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got := back.Record()
	if got.Backend != rec.Backend || got.ExitStatus != rec.ExitStatus || got.Duration != rec.Duration {
		t.Fatalf("round trip lost execution metadata: %+v", got)
	}

	// Model records — stamped Backend "model" by the real pipeline —
	// journal no execution metadata at all: their bytes stay
	// deterministic and identical to the pre-backend format, and the
	// implicit default is restored on read.
	_, modelRec := testRecord(4)
	modelRec.Backend = "model"
	raw, err = json.Marshal(entryFrom(0, c, modelRec))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"exitStatus", "durationNS", `"backend"`} {
		if strings.Contains(string(raw), field) {
			t.Errorf("model entry %s carries %s", raw, field)
		}
	}
	var modelBack Entry
	if err := json.Unmarshal(raw, &modelBack); err != nil {
		t.Fatal(err)
	}
	if got := modelBack.Record().Backend; got != "model" {
		t.Errorf("restored model record has backend %q, want the implicit default", got)
	}
}

// TestReplayedOutcomeCarriesItsSum: journal replay gives an outcome the
// content sum its producer computed — a function of the set alone — so a
// restored record equals the live one, sum included.
func TestReplayedOutcomeCarriesItsSum(t *testing.T) {
	c, rec := testRecord(3)
	rec.Outcome.Blocks = map[int]struct{}{4: {}, 17: {}, 1 << 20: {}}
	rec.Outcome.BlockSum = prog.SumBlocks(rec.Outcome.Blocks)
	for _, ids := range [][]int{nil, {17, 4, 1 << 20, 4}} {
		e := entryFrom(0, c, rec)
		if ids != nil {
			e.Blocks = ids // a hand-edited journal: unsorted, repeated
		}
		if got := e.Record().Outcome; got.BlockSum != rec.Outcome.BlockSum || !reflect.DeepEqual(got.Blocks, rec.Outcome.Blocks) {
			t.Errorf("replayed %v (sum %#x), journaled %v (sum %#x)", got.Blocks, got.BlockSum, rec.Outcome.Blocks, rec.Outcome.BlockSum)
		}
	}
	rec.Outcome.Blocks, rec.Outcome.BlockSum = nil, 0
	if got := entryFrom(0, c, rec).Record().Outcome; got.Blocks != nil || got.BlockSum != 0 {
		t.Errorf("an outcome without blocks replayed as %+v", got)
	}
}
