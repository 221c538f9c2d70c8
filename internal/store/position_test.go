package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"afex/internal/core"
	"afex/internal/explore"
)

// The journal position a snapshot records: where the writer puts it,
// what a read makes of it, and what compaction and old directories do to
// it.

// landsIn reports whether dir's snapshot names the frame of the entry
// just before it.
func landsIn(dir string) (bool, error) {
	st, file, err := readSnapshot(dir, snapSeq)
	if err != nil || st == nil {
		return false, fmt.Errorf("no snapshot in %s: %v", dir, err)
	}
	f, err := os.Open(filepath.Join(dir, binJournalName))
	if err != nil {
		return false, err
	}
	defer f.Close()
	_, ok, err := walkSegment(f, file.pos, st.Seq, nil)
	return ok, err
}

func lands(t testing.TB, dir string) bool {
	t.Helper()
	ok, err := landsIn(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// recoverDir opens dir, recovers it by the tail or by the full journal,
// and closes it again.
func recoverDir(t testing.TB, dir string, tail bool) *core.Restore {
	t.Helper()
	s, err := OpenOptions(dir, Options{TailResume: tail})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := s.Recover()
	if err != nil || r == nil {
		t.Fatalf("recover %s: %+v, %v", dir, r, err)
	}
	return r
}

// sameRestore fails unless the tail restore holds what the full one does
// past its base: the records, the explorer tail, the executed keys in
// fold order.
func sameRestore(t testing.TB, tail, full *core.Restore) {
	t.Helper()
	if full.Base != 0 || tail.Base+len(tail.Records) != len(full.Records) {
		t.Fatalf("tail restore of %d records from %d, full restore of %d from %d", len(tail.Records), tail.Base, len(full.Records), full.Base)
	}
	if !reflect.DeepEqual(tail.Records, full.Records[tail.Base:]) {
		t.Fatal("tail restore's records differ from the full journal's")
	}
	if len(tail.Tail) != len(full.Tail) || len(tail.Tail) > 0 && !reflect.DeepEqual(tail.Tail, full.Tail) {
		t.Fatalf("tail restore replays %d feedback, the full one %d, or in another order", len(tail.Tail), len(full.Tail))
	}
	if a, b := tail.Seen.Keys().Strings(), full.Seen.Keys().Strings(); !reflect.DeepEqual(a, b) {
		t.Fatalf("tail restore's executed keys (%d) differ from the full one's (%d)", len(a), len(b))
	}
}

// TestSnapshotRecordsEntryBeforeIt: the writer records the offset of
// entry Seq-1 whether the snapshot comes right after it, after entries
// past it were already written, or after a reopen that wrote nothing;
// a JSONL directory records none.
func TestSnapshotRecordsEntryBeforeIt(t *testing.T) {
	dir := t.TempDir()
	all := testEntries(30)
	s, err := OpenOptions(dir, Options{Format: FormatBinary})
	if err != nil {
		t.Fatal(err)
	}
	s.Begin("demo", "sig", "")
	for i := 0; i < 20; i++ {
		c, rec := testRecord(i)
		s.JournalRecord(c, rec)
	}
	for _, seq := range []int{5, 6, 20} { // behind the writer, then at its next entry
		s.SnapshotSession(testSnapshot(seq, all))
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if at, _ := snapshotAt(t, dir); at != seq || !lands(t, dir) {
			t.Fatalf("snapshot at %d does not record entry %d's frame", seq, seq-1)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SnapshotSession(testSnapshot(20, all)) // an entry the last run wrote
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !lands(t, dir) {
		t.Fatal("the first snapshot after a reopen does not record the last entry's frame")
	}

	jsonl := t.TempDir()
	s, err = OpenOptions(jsonl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, rec := testRecord(0)
	s.JournalRecord(c, rec)
	s.SnapshotSession(testSnapshot(1, all))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, pos := snapshotAt(t, jsonl); pos != 0 {
		t.Fatalf("a JSONL directory's snapshot records position %d", pos)
	}
}

// checkedStore is a session's store that, once each snapshot has landed,
// checks the position it records, and counts the snapshots that came
// after entries past them (lagging) or right at the writer's next entry.
type checkedStore struct {
	*Store
	t             *testing.T
	journaled     atomic.Int64
	lagging, next int
}

func (c *checkedStore) JournalRecord(cand explore.Candidate, rec core.Record) {
	c.journaled.Add(1)
	c.Store.JournalRecord(cand, rec)
}

// SnapshotSession runs under the engine's snapshot lock, so no other
// snapshot replaces the file before it is checked, and on a worker's
// goroutine, so it reports with t.Error.
func (c *checkedStore) SnapshotSession(st *core.SessionState) {
	queued := int(c.journaled.Load())
	c.Store.SnapshotSession(st)
	if err := c.Sync(); err != nil {
		c.t.Error(err)
		return
	}
	if ok, err := landsIn(c.dir); err != nil || !ok {
		c.t.Errorf("snapshot at %d (after %d entries) does not record entry %d's frame (%v)", st.Seq, queued, st.Seq-1, err)
	}
	switch {
	case queued > st.Seq:
		c.lagging++
	case queued == st.Seq:
		c.next++
	}
}

// TestPositionsUnderParallelFolds: a two-worker session snapshotting
// every few folds, killed (closed without Finish) at several points.
// Every snapshot it publishes records entry Seq-1's frame, the tail
// resume equals the full-journal one, and after a compaction — finished,
// or interrupted between the live rewrite and the meta.json rewrite —
// the position no longer lands and the resume walks or takes the full
// journal, never a short tail.
func TestPositionsUnderParallelFolds(t *testing.T) {
	for _, kill := range []int{23, 61, 100} {
		dir := t.TempDir()
		s, err := OpenOptions(dir, Options{Format: FormatBinary})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sessionConfig("fitness", 0, 2, kill)
		cfg.SnapshotEvery = 5
		if err := s.Attach(&cfg); err != nil {
			t.Fatal(err)
		}
		checked := &checkedStore{Store: s, t: t}
		cfg.Store = checked
		eng, err := core.NewEngine(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunWith(eng.LocalExecutor())
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("kill at %d: %d snapshots lagged the writer, %d were at its next entry", kill, checked.lagging, checked.next)

		tail, full := recoverDir(t, dir, true), recoverDir(t, dir, false)
		if tail.Info.Path != "tail" || full.Info.Path != "full-journal" || len(full.Records) != kill {
			t.Fatalf("kill at %d: resumed by %+v and %+v with %d records", kill, tail.Info, full.Info, len(full.Records))
		}
		sameRestore(t, tail, full)

		// Compaction interrupted after the live rewrite: meta.json still
		// names the old watermark.
		cut := copyDir(t, dir)
		meta, err := os.ReadFile(filepath.Join(cut, metaName))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []string{dir, cut} {
			if _, err := Compact(d); err != nil {
				t.Fatal(err)
			}
			if lands(t, d) {
				t.Fatalf("kill at %d: the position still lands after compaction rewrote the live segment", kill)
			}
		}
		if err := os.WriteFile(filepath.Join(cut, metaName), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, d := range []string{dir, cut} {
			after := recoverDir(t, d, true)
			sameRestore(t, after, recoverDir(t, d, false))
			if after.Base > 0 {
				sameRestore(t, after, full)
			} else if !reflect.DeepEqual(after.Records, full.Records) {
				t.Fatalf("kill at %d: full-journal resume after compaction differs", kill)
			}
		}
	}
}

// TestCompactionCutBeforeMetaOnEmptyTail: when the snapshot covers the
// whole journal, an interrupted compaction leaves an empty live segment
// and the old watermark. Nothing then proves the journal reaches the
// snapshot, so the resume takes the full journal: archive and live.
func TestCompactionCutBeforeMetaOnEmptyTail(t *testing.T) {
	dir := t.TempDir()
	const n = 40
	journalWithSnapshot(t, dir, Options{Format: FormatBinary}, n, n)
	meta, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		t.Fatal(err)
	}
	if moved, err := Compact(dir); err != nil || moved != n {
		t.Fatalf("compaction moved %d entries (%v), want %d", moved, err, n)
	}
	if err := os.WriteFile(filepath.Join(dir, metaName), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	r := recoverDir(t, dir, true)
	if r.Info.Path != "full-journal" || r.Base != 0 || len(r.Records) != n || len(r.Tail) != 0 || r.State == nil {
		t.Fatalf("interrupted compaction of an empty tail resumes by %+v with %d records, base %d", r.Info, len(r.Records), r.Base)
	}
}

func copyDir(t testing.TB, dir string) string {
	t.Helper()
	to := t.TempDir()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if raw, err := os.ReadFile(filepath.Join(dir, e.Name())); err == nil {
			if err := os.WriteFile(filepath.Join(to, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return to
}

// TestOldIndexedDirectoryResumes: a directory as builds with the side
// index left it — an index frame after every 16th entry, the journal.idx
// records that mirror them, a snapshot that records no position — opens
// without a byte repaired, resumes by the walk, and the first snapshot
// written over it records a position the next resume starts at. The
// stray journal.idx is never touched.
func TestOldIndexedDirectoryResumes(t *testing.T) {
	dir := t.TempDir()
	const n, every, snapAt = 80, 16, 50
	writeEntries(t, dir, Options{Format: FormatBinary}, n)
	all := testEntries(n + 20)
	raw, err := os.ReadFile(filepath.Join(dir, binJournalName))
	if err != nil {
		t.Fatal(err)
	}
	seg, idx, prev := []byte(segMagic), []byte(nil), int64(-1)
	fr := newFrameReader(bytes.NewReader(raw[len(segMagic):]), int64(len(segMagic)), int64(len(raw)))
	for {
		kind, payload, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seg = appendFrame(seg, kind, payload)
		if seq, _ := binary.Varint(payload); (seq+1)%every == 0 {
			off := int64(len(seg))
			seg = appendFrame(seg, frameIndex, binary.AppendUvarint(binary.AppendUvarint(nil, uint64(seq+1)), uint64(prev+1)))
			prev = off
			idx = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(idx, uint64(seq+1)), uint64(off))
		}
	}
	snap, err := referenceAppendSnapshot(nil, testSnapshot(snapAt, all))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{binJournalName: seg, "journal.idx": idx, snapshotName: snap} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := ReadStats(dir)
	if err != nil || st.Entries != n || st.SnapshotFormat != SnapshotFramedJSON || st.ResumePath != "tail" {
		t.Fatalf("old indexed directory reads as %+v (%v)", st, err)
	}
	if _, pos := snapshotAt(t, dir); pos != 0 {
		t.Fatalf("an old snapshot reads as recording position %d", pos)
	}
	if _, scanned, _, err := readSegmentTail(filepath.Join(dir, binJournalName), 0, snapAt); err != nil || scanned != n {
		t.Fatalf("tail read without a position walked %d entries (%v), want all %d", scanned, err, n)
	}
	s, err := OpenOptions(dir, Options{TailResume: true})
	if err != nil {
		t.Fatal(err)
	}
	if now, _ := os.ReadFile(filepath.Join(dir, binJournalName)); !bytes.Equal(now, seg) {
		t.Fatal("opening the old directory repaired its journal")
	}
	r, err := s.Recover()
	if err != nil || r.Info.Path != "tail" || r.Base != snapAt || len(r.Records) != n-snapAt {
		t.Fatalf("old indexed directory recovers as %+v: %v", r, err)
	}
	s.SnapshotSession(testSnapshot(n, all)) // entry n-1 is the old build's
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if !lands(t, dir) {
		t.Fatal("the first snapshot over an old directory records no position for the entry the old build wrote")
	}
	for i := n; i < n+20; i++ {
		c, rec := testRecord(i)
		s.JournalRecord(c, rec)
	}
	s.SnapshotSession(testSnapshot(n+10, all))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seq, pos := snapshotAt(t, dir)
	if _, scanned, lastSeq, err := readSegmentTail(filepath.Join(dir, binJournalName), pos, seq); err != nil || scanned != 10 || lastSeq != n+19 {
		t.Fatalf("tail read from the new position decoded %d entries to seq %d (%v), want 10 to %d", scanned, lastSeq, err, n+19)
	}
	if r := recoverDir(t, dir, true); r.Info.Path != "tail" || r.Base != n+10 || len(r.Records) != 10 {
		t.Fatalf("resume over the new snapshot: %+v, base %d, %d records", r.Info, r.Base, len(r.Records))
	}
	if now, _ := os.ReadFile(filepath.Join(dir, "journal.idx")); !bytes.Equal(now, idx) {
		t.Fatal("journal.idx changed")
	}
}

// TestStatsJSONLTornLine: a JSONL journal killed mid-append ends in part
// of a line. ReadJournal drops it and the next Open truncates it, so the
// stats do not count it either.
func TestStatsJSONLTornLine(t *testing.T) {
	dir := t.TempDir()
	writeEntries(t, dir, Options{}, 20)
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := raw[:bytes.IndexByte(raw, '\n')]
	if err := os.WriteFile(path, append(raw, first[:len(first)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 20 || st.Entries != len(entries) || st.LiveEntries != len(entries) || st.TailEntries != len(entries) {
		t.Fatalf("torn JSONL journal: ReadJournal reads %d entries, stats count %d (live %d, tail %d)",
			len(entries), st.Entries, st.LiveEntries, st.TailEntries)
	}
}
