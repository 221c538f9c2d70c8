package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"afex/internal/cluster"
	"afex/internal/core"
	"afex/internal/explore"
)

// TestJournaledRecordAllocatesNothing: once the queue, the entry and the
// frame buffers are warm, journaling a binary record — the enqueue, the
// writer filling its entry and framing it, the flush — allocates nothing.
func TestJournaledRecordAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{Format: FormatBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, rec := testRecord(5)
	// A snapshot behind the warm-up keeps the offsets it has seen, so
	// the entries after it land in storage they already had.
	const warm = 256
	for rec.ID = 0; rec.ID < warm; rec.ID++ {
		s.JournalRecord(c, rec)
	}
	s.SnapshotSession(&core.SessionState{Seq: warm})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.JournalRecord(c, rec)
		rec.ID++
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a journaled record allocates %v times", n)
	}
	entries, err := readSegment(filepath.Join(dir, binJournalName))
	if err != nil || len(entries) != rec.ID || entries[len(entries)-1].Seq != rec.ID-1 {
		t.Fatalf("journal holds %d entries (%v), want %d", len(entries), err, rec.ID)
	}
}

// TestSnapshotWriterCostsTheDistinctState: what writing a snapshot
// allocates follows its distinct stacks and its number of lists, not the
// keys they hold.
func TestSnapshotWriterCostsTheDistinctState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	allocs := func(n int) float64 {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("0:%d,%d,%d", i, i%7, i%3)
		}
		st := goldenState(n)
		st.Aggregates.SeenKeys = explore.NewKeySet(keys).Keys()
		st.Explorer.Shards[0].Seen = explore.NewKeySet(keys).Keys()
		var w snapWriter
		if err := w.write(io.Discard, st, 8); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if err := w.write(io.Discard, st, 8); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(5000), allocs(20000); small != large {
		t.Fatalf("a snapshot of 5,000 keys allocates %v times, of 20,000 keys %v", small, large)
	}
}

// TestFailedPublishLeavesNothing: a fill that fails partway leaves the
// published file as it was and no temp file; in a store, a snapshot
// whose write fails the same way says so from Sync and Close.
func TestFailedPublishLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	if err := writeAtomicFile(dir, metaName, writeBytes([]byte("before"))); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := writeAtomicFile(dir, metaName, func(w io.Writer) error {
		w.Write([]byte("half a file"))
		return boom
	})
	if raw, _ := os.ReadFile(filepath.Join(dir, metaName)); !errors.Is(err, boom) || string(raw) != "before" {
		t.Fatalf("failed fill returned %v and left %q", err, raw)
	}
	if _, err := os.Lstat(filepath.Join(dir, metaName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("failed fill left its temp file (stat: %v)", err)
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write with")
	}
	dir = t.TempDir()
	s, err := OpenOptions(dir, Options{Format: FormatBinary})
	if err != nil {
		t.Fatal(err)
	}
	cands, recs := goldenRecords()
	for i := range recs {
		s.JournalRecord(cands[i], recs[i])
	}
	s.SnapshotSession(testSnapshot(0, nil))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	published, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	// The temp file is a device every write to fails on: the snapshot,
	// larger than one buffered write, fails partway through.
	tmp := filepath.Join(dir, snapshotName+".tmp")
	if err := os.Symlink("/dev/full", tmp); err != nil {
		t.Fatal(err)
	}
	s.SnapshotSession(goldenState(len(recs)))
	if err := s.Sync(); err == nil {
		t.Fatal("Sync after a failed snapshot write returned no error")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close after a failed snapshot write returned no error")
	}
	if now, _ := os.ReadFile(filepath.Join(dir, snapshotName)); !bytes.Equal(now, published) {
		t.Fatalf("a failed snapshot write changed the published snapshot: %d bytes, was %d", len(now), len(published))
	}
	if _, err := os.Lstat(tmp); !os.IsNotExist(err) {
		t.Fatalf("a failed snapshot write left its temp file (stat: %v)", err)
	}
}

// TestLegacySnapshotRemovedOnce: the snapshot.json an older build left is
// removed when the store's first snapshot lands, and the store does not
// look for it again.
func TestLegacySnapshotRemovedOnce(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, legacySnapshotName)
	if err := os.WriteFile(legacy, []byte(`{"seq":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := &core.SessionState{AllStacks: cluster.NewSet(1).ExportState()}
	s.SnapshotSession(st)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("snapshot.json outlived the first snapshot (stat: %v)", err)
	}
	if err := os.WriteFile(legacy, []byte(`{"seq":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s.SnapshotSession(st)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Fatalf("the second snapshot looked for snapshot.json again (stat: %v)", err)
	}
}
