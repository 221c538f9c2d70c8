package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"afex/internal/cluster"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/inject"
	"afex/internal/libc"
)

// writeEntries journals n testRecord entries into dir with the given
// options and closes the store.
func writeEntries(t testing.TB, dir string, opts Options, n int) {
	t.Helper()
	s, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("demo", "sig", "2026-08-08T00:00:00Z"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c, rec := testRecord(i)
		s.JournalRecord(c, rec)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryJournalMatchesJSONL: the same session journaled in both
// formats reads back as deep-equal entries — the codec-parity contract
// that lets resume and replay treat the formats interchangeably.
func TestBinaryJournalMatchesJSONL(t *testing.T) {
	jsonlDir, binDir := t.TempDir(), t.TempDir()
	writeEntries(t, jsonlDir, Options{Format: FormatJSONL}, 50)
	writeEntries(t, binDir, Options{Format: FormatBinary}, 50)

	jl, err := ReadJournal(jsonlDir)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := ReadJournal(binDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jl) != 50 || len(bl) != 50 {
		t.Fatalf("journals hold %d (jsonl) and %d (binary) entries, want 50", len(jl), len(bl))
	}
	for i := range jl {
		if !reflect.DeepEqual(jl[i], bl[i]) {
			t.Fatalf("entry %d differs between formats:\n jsonl: %+v\nbinary: %+v", i, jl[i], bl[i])
		}
	}
}

// TestBinaryEntryCodecFullFields: every Entry field — including the
// nested injection plan with errno/retval and the float scores —
// round-trips through the binary codec.
func TestBinaryEntryCodecFullFields(t *testing.T) {
	c, rec := testRecord(7)
	rec.Backend = "process"
	rec.ExitStatus = "signal:killed"
	rec.Duration = 123 * time.Millisecond
	rec.Outcome.Crashed = true
	rec.Outcome.Hung = false
	rec.Outcome.CrashID = "crashy/unchecked-malloc"
	rec.Plan = inject.Plan{Faults: []inject.Fault{
		{Function: "read", CallNumber: 2, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}},
		{Function: "malloc", CallNumber: 9, Err: libc.ErrorReturn{Errno: "ENOMEM"}},
	}}
	rec.Relevance = 0.375
	rec.Skipped = false
	want := entryFrom(2, c, rec)

	var enc segEnc
	enc.encodeEntry(want)
	got, err := decodeEntry(enc.bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, *want) {
		t.Fatalf("binary codec round trip:\n got %+v\nwant %+v", got, *want)
	}

	// Truncated payloads must error, never mis-decode.
	for cut := 1; cut < len(enc.bytes()); cut += 7 {
		if back, err := decodeEntry(enc.bytes()[:len(enc.bytes())-cut]); err == nil && reflect.DeepEqual(back, *want) {
			t.Fatalf("truncated payload (-%d bytes) decoded to the full entry", cut)
		}
	}
}

// TestBinaryTornTailRepairedOnOpen: the binary analogue of the JSONL
// crash-tail contract — torn trailing bytes are dropped by readers and
// truncated before append, so crash → resume → replay keeps the segment
// readable and contiguous.
func TestBinaryTornTailRepairedOnOpen(t *testing.T) {
	dir := t.TempDir()
	writeEntries(t, dir, Options{Format: FormatBinary}, 10)

	path := filepath.Join(dir, binJournalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 {
		t.Fatalf("torn segment loaded %d entries, want 9", len(entries))
	}

	// "Resume": reopen and append after the torn tail.
	s, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.format != FormatBinary {
		t.Fatalf("reopen resolved format %q, want binary from meta", s.format)
	}
	s.Begin("demo", "sig", "")
	for i := 9; i < 15; i++ {
		c, rec := testRecord(i)
		s.JournalRecord(c, rec)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err = ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 15 {
		t.Fatalf("segment has %d entries after crash+resume, want 15", len(entries))
	}
	for i, e := range entries {
		if e.Seq != i {
			t.Fatalf("entry %d has seq %d — torn tail fused with an append", i, e.Seq)
		}
	}
}

// TestBinaryCorruptFrameDropsTail: a flipped byte inside the final
// frame fails its crc and the reader treats everything from there as
// torn.
func TestBinaryCorruptFrameDropsTail(t *testing.T) {
	dir := t.TempDir()
	writeEntries(t, dir, Options{Format: FormatBinary}, 10)
	path := filepath.Join(dir, binJournalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 {
		t.Fatalf("corrupt final frame: loaded %d entries, want 9", len(entries))
	}
}

// testSnapshot builds a snapshot at seq that self-describes its prefix
// (aggregates + cluster sets), as the engine's sessionStateLocked does.
func testSnapshot(seq int, entries []Entry) *core.SessionState {
	ag := &core.Aggregates{CrashIDs: map[string]int{}}
	var keys []string
	for i := 0; i < seq; i++ {
		e := &entries[i]
		if e.Injected {
			ag.Injected++
		}
		if e.Injected && e.Failed {
			ag.Failed++
		}
		keys = append(keys, e.Key())
	}
	ag.SeenKeys = explore.NewKeySet(keys).Keys()
	return &core.SessionState{
		Seq:           seq,
		Aggregates:    ag,
		AllStacks:     cluster.NewSet(1).ExportState(),
		FailClusters:  cluster.NewSet(1).ExportState(),
		CrashClusters: cluster.NewSet(1).ExportState(),
	}
}

// journalWithSnapshot journals n testRecord entries into dir and, from
// the same store, a snapshot at snapAt once the entries before it are
// queued, the way a session does; it returns the entries.
func journalWithSnapshot(t testing.TB, dir string, opts Options, n, snapAt int) []Entry {
	t.Helper()
	s, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("demo", "sig", "2026-08-08T00:00:00Z"); err != nil {
		t.Fatal(err)
	}
	entries := testEntries(n)
	for i := 0; i < n; i++ {
		if i == snapAt {
			s.SnapshotSession(testSnapshot(snapAt, entries))
		}
		c, rec := testRecord(i)
		s.JournalRecord(c, rec)
	}
	if snapAt == n {
		s.SnapshotSession(testSnapshot(snapAt, entries))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// testEntries are the entries journaling testRecord 0..n-1 writes.
func testEntries(n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		c, rec := testRecord(i)
		entries[i] = *entryFrom(0, c, rec)
	}
	return entries
}

// snapshotAt returns the seq of dir's snapshot and the journal position
// it records.
func snapshotAt(t testing.TB, dir string) (int, int64) {
	t.Helper()
	st, file, err := readSnapshot(dir, snapSeq)
	if err != nil || st == nil {
		t.Fatalf("no snapshot in %s: %v", dir, err)
	}
	return st.Seq, file.pos
}

// TestBinaryTailResume: with TailResume on, Recover materializes only
// the entries past the snapshot — read from the position the snapshot
// recorded, decoding exactly the tail, not O(run) — and reports the
// snapshot's seq as the restore base.
func TestBinaryTailResume(t *testing.T) {
	dir := t.TempDir()
	const n, snapAt = 200, 150
	journalWithSnapshot(t, dir, Options{Format: FormatBinary}, n, snapAt)

	s, err := OpenOptions(dir, Options{TailResume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Base != snapAt || r.Info.Path != "tail" {
		t.Fatalf("tail resume: base = %+v, want %d", r, snapAt)
	}
	if len(r.Records) != n-snapAt || len(r.Tail) != n-snapAt {
		t.Fatalf("tail resume materialized %d records / %d feedback, want %d", len(r.Records), len(r.Tail), n-snapAt)
	}
	for i, rec := range r.Records {
		if rec.ID != snapAt+i {
			t.Fatalf("tail record %d has ID %d, want %d", i, rec.ID, snapAt+i)
		}
	}
	// The tail's keys join the arena the snapshot's were decoded into:
	// the set is one piece of storage, the one the list is a prefix of.
	set, list := r.Seen.Keys().Records(), r.State.Aggregates.SeenKeys.Records()
	if r.Seen.Len() != n || len(set) != 1 || len(list) != 1 || &set[0][0] != &list[0][0] {
		t.Fatalf("tail resume's %d keys are %d pieces; the snapshot's list %d pieces elsewhere", r.Seen.Len(), len(set), len(list))
	}

	// Flatness: the read starts at the entry before the tail, whatever
	// the journal's length.
	seq, pos := snapshotAt(t, dir)
	entries, scanned, lastSeq, err := readSegmentTail(filepath.Join(dir, binJournalName), pos, seq)
	if err != nil || pos == 0 || len(entries) != n-snapAt || lastSeq != n-1 {
		t.Fatalf("tail read from position %d: %v, %d entries, last seq %d", pos, err, len(entries), lastSeq)
	}
	if scanned != n-snapAt {
		t.Fatalf("tail read decoded %d entries, want exactly the tail's %d", scanned, n-snapAt)
	}
}

// TestTailSkipStopsWhereDecodeDoes: the entries a walk steps over before
// the snapshot are read without being kept — every field read, nothing
// allocated — and an entry whose frame passes its crc but whose payload
// does not decode is corruption. When that entry is the one the
// snapshot's position names, the read does not start there: it walks,
// reaches it, and the resume refuses naming its offset.
func TestTailSkipStopsWhereDecodeDoes(t *testing.T) {
	c, rec := testRecord(3)
	rec.Plan = inject.Plan{Faults: []inject.Fault{{Function: "read", CallNumber: 2, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}}}}
	var enc segEnc
	enc.encodeEntry(entryFrom(1, c, rec))
	payload := enc.bytes()
	if n := testing.AllocsPerRun(20, func() {
		if en, err := readEntry(&segDec{buf: payload, skip: true}); err != nil || en.Seq != rec.ID {
			t.Fatalf("skipping a whole entry: seq %d, %v", en.Seq, err)
		}
	}); n != 0 {
		t.Fatalf("skipping an entry allocates %v times", n)
	}
	for cut := 1; cut < len(payload); cut++ {
		_, full := decodeEntry(payload[:len(payload)-cut])
		_, skip := readEntry(&segDec{buf: payload[:len(payload)-cut], skip: true})
		if (full == nil) != (skip == nil) {
			t.Fatalf("payload cut by %d: decode says %v, skip says %v", cut, full, skip)
		}
	}

	dir := t.TempDir()
	const n, snapAt = 80, 50
	journalWithSnapshot(t, dir, Options{Format: FormatBinary}, n, snapAt)
	// Rewrite the segment with entry snapAt-1 one byte short behind a
	// valid crc; the frames before it, and so the position, stay put.
	raw, err := os.ReadFile(filepath.Join(dir, binJournalName))
	if err != nil {
		t.Fatal(err)
	}
	seg := []byte(segMagic)
	_, pos := snapshotAt(t, dir)
	fr := newFrameReader(bytes.NewReader(raw[len(segMagic):]), int64(len(segMagic)), int64(len(raw)))
	for {
		kind, payload, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seq, _ := binary.Varint(payload); seq == snapAt-1 {
			if int64(len(seg)) != pos {
				t.Fatalf("snapshot records position %d, entry %d is at %d", pos, seq, len(seg))
			}
			payload = payload[:len(payload)-1]
		}
		seg = appendFrame(seg, kind, payload)
	}
	if err := os.WriteFile(filepath.Join(dir, binJournalName), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenOptions(dir, Options{TailResume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := s.Recover()
	if want := fmt.Sprintf("at offset %d: ", pos); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume past an undecodable entry before the snapshot: %+v, %v; want a refusal naming %q", r, err, want)
	}
}

// TestBinaryTailResumeFallsBack: a snapshot that cannot self-describe
// its prefix (no aggregates — e.g. written by an older build) falls
// back to the full-journal path with every record materialized.
func TestBinaryTailResumeFallsBack(t *testing.T) {
	dir := t.TempDir()
	const n = 40
	writeEntries(t, dir, Options{Format: FormatBinary}, n)
	all, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(30, all)
	snap.Aggregates = nil

	s, err := OpenOptions(dir, Options{TailResume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SnapshotSession(snap)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Base != 0 || len(r.Records) != n {
		t.Fatalf("fallback recover: %+v (records %d), want base 0 with %d records", r, len(r.Records), n)
	}
	if r.Info.Path != "full-journal" || !strings.Contains(r.Info.Reason, "does not describe") || r.Info.Entries != n {
		t.Fatalf("fallback recover reports %+v", r.Info)
	}
}

// TestBinaryTailResumeRejectsLostJournal: a snapshot ahead of what the
// segment actually holds must not tail-resume into a hole — the full
// path discards the snapshot instead.
func TestBinaryTailResumeRejectsLostJournal(t *testing.T) {
	dir := t.TempDir()
	const n = 20
	writeEntries(t, dir, Options{Format: FormatBinary}, n)
	all, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenOptions(dir, Options{TailResume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SnapshotSession(testSnapshot(n, all))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(n, all)
	snap.Seq = n + 5 // claims records the journal never got
	if r, why := s.recoverTail(snap, 0); r != nil || !strings.Contains(why, "ahead of the journal") {
		t.Fatalf("tail resume of a snapshot ahead of the journal: %+v, reason %q", r, why)
	}
}

// TestCompact: the snapshot-covered prefix moves to the archive, full
// reads still see every entry exactly once, tail resume keeps working,
// and a re-run with nothing new to cover is a no-op.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	const n, snapAt = 120, 100
	writeEntries(t, dir, Options{Format: FormatBinary}, n)
	all, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SnapshotSession(testSnapshot(snapAt, all))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	moved, err := Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if moved != snapAt {
		t.Fatalf("compaction archived %d entries, want %d", moved, snapAt)
	}
	st, err := ReadStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.ArchivedEntries != snapAt || st.LiveEntries != n-snapAt || st.Entries != n || st.CompactedSeq != snapAt {
		t.Fatalf("post-compaction stats: %+v", st)
	}

	after, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, after) {
		t.Fatalf("compaction changed the journal's content: %d entries vs %d", len(after), len(all))
	}

	// Tail resume over the compacted directory.
	s2, err := OpenOptions(dir, Options{TailResume: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Base != snapAt || len(r.Records) != n-snapAt {
		t.Fatalf("tail resume after compaction: base %d records %d, want %d/%d", r.Base, len(r.Records), snapAt, n-snapAt)
	}
	// Appending continues the same sequence in the rewritten live segment.
	s2.Begin("demo", "sig", "")
	for i := n; i < n+10; i++ {
		c, rec := testRecord(i)
		s2.JournalRecord(c, rec)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) != n+10 {
		t.Fatalf("journal holds %d entries after post-compaction appends, want %d", len(grown), n+10)
	}
	for i, e := range grown {
		if e.Seq != i {
			t.Fatalf("entry %d has seq %d after compaction+append", i, e.Seq)
		}
	}

	if moved, err := Compact(dir); err != nil || moved != 0 {
		t.Fatalf("re-compaction with no new snapshot moved %d entries (err %v), want 0", moved, err)
	}
}

// TestCompactRejectsJSONL: compaction is a binary-format operation.
func TestCompactRejectsJSONL(t *testing.T) {
	dir := t.TempDir()
	writeEntries(t, dir, Options{}, 5)
	if _, err := Compact(dir); err == nil {
		t.Fatal("compaction accepted a JSONL directory")
	}
}

// TestOpenOptionsFormatConflicts: a directory keeps its creation
// format; asking for the other one is an error, and unknown names are
// rejected up front.
func TestOpenOptionsFormatConflicts(t *testing.T) {
	dir := t.TempDir()
	writeEntries(t, dir, Options{Format: FormatJSONL}, 1)
	if _, err := OpenOptions(dir, Options{Format: FormatBinary}); err == nil {
		t.Fatal("JSONL directory reopened as binary")
	}
	binDir := t.TempDir()
	writeEntries(t, binDir, Options{Format: FormatBinary}, 1)
	if _, err := OpenOptions(binDir, Options{Format: FormatJSONL}); err == nil {
		t.Fatal("binary directory reopened as JSONL")
	}
	if _, err := OpenOptions(t.TempDir(), Options{Format: "sqlite"}); err == nil {
		t.Fatal("unknown journal format accepted")
	}
	// No explicit format: both reopen as themselves.
	for _, d := range []string{dir, binDir} {
		s, err := OpenOptions(d, Options{})
		if err != nil {
			t.Fatalf("reopen %s: %v", d, err)
		}
		s.Close()
	}
}

// TestStatsJSONL: the stats reader reports the legacy format without
// touching locks (it must work while another process holds the dir).
func TestStatsJSONL(t *testing.T) {
	dir := t.TempDir()
	writeEntries(t, dir, Options{}, 12)
	st, err := ReadStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Format != FormatJSONL || st.Entries != 12 || st.LiveEntries != 12 ||
		st.Segments != 1 || st.TailEntries != 12 {
		t.Fatalf("jsonl stats: %+v", st)
	}
}

// TestStatsSnapshot: the stats reader takes a legacy snapshot.json's seq
// from wherever the field sits — leading the compact object builds before
// snapshot.afexs wrote, or anywhere in an indented one — reports the
// file's size, and treats anything else, a snapshot at no seq included,
// as no snapshot.
func TestStatsSnapshot(t *testing.T) {
	dir := t.TempDir()
	writeEntries(t, dir, Options{}, 12)
	for _, tc := range []struct {
		name, body string
		seq        int
		ok         bool
	}{
		{"compact", `{"seq":9,"elapsed":5,"aggregates":{"injected":3,"seenKeys":["0:1","0:2"]}}`, 9, true},
		{"indented, seq last", "{\n \"elapsed\": 5,\n \"covered\": [1, 2],\n \"seq\": 7\n}", 7, true},
		{"no seq", `{"elapsed":5}`, 0, false},
		{"torn", `{"elapsed":5,"covered":[1,`, 0, false},
		{"not an object", `[9]`, 0, false},
	} {
		if err := os.WriteFile(filepath.Join(dir, legacySnapshotName), []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadStats(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.HasSnapshot != tc.ok || st.SnapshotSeq != tc.seq || st.SnapshotBytes != int64(len(tc.body)) || st.TailEntries != 12-tc.seq {
			t.Errorf("%s: stats %+v, want snapshot=%v seq=%d bytes=%d", tc.name, st, tc.ok, tc.seq, len(tc.body))
		}
	}
}

// TestStatsBinaryCounts: a binary directory counts the entry frames of
// each segment, and nothing else.
func TestStatsBinaryCounts(t *testing.T) {
	dir := t.TempDir()
	writeEntries(t, dir, Options{Format: FormatBinary}, 35)
	st, err := ReadStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Format != FormatBinary || st.Entries != 35 || st.LiveEntries != 35 || st.Segments != 1 {
		t.Fatalf("binary stats: %+v", st)
	}
}
