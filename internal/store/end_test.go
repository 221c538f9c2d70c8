package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The one end-of-journal rule, both formats: bytes that are not whole
// are the torn tail, which readers drop and Open truncates; a whole line
// or frame whose entry does not decode is corruption, which ReadJournal
// and Recover refuse, naming where it is, however much is appended after
// it.

// appendRecord opens dir, journals testRecord(id) and closes it again.
func appendRecord(t testing.TB, dir string, id int) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, rec := testRecord(id)
	s.JournalRecord(c, rec)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// refuses fails unless reading dir's journal, and recovering it, refuse
// with an error that names where, and returns the reading's error.
func refuses(t testing.TB, dir, where string) string {
	t.Helper()
	entries, err := ReadJournal(dir)
	if err == nil || !strings.Contains(err.Error(), where) {
		t.Fatalf("ReadJournal read %d entries (%v), want a refusal naming %q", len(entries), err, where)
	}
	s, oerr := OpenOptions(dir, Options{TailResume: true})
	if oerr != nil {
		t.Fatal(oerr)
	}
	defer s.Close()
	if r, rerr := s.Recover(); rerr == nil || !strings.Contains(rerr.Error(), where) {
		t.Fatalf("Recover restored %+v (%v), want a refusal naming %q", r, rerr, where)
	}
	return err.Error()
}

// TestJSONLWholeUndecodableLineRefused: a final line that ends in a
// newline but does not decode is no torn tail. The reader refuses it
// rather than dropping it, and a run appended behind it changes nothing
// about that.
func TestJSONLWholeUndecodableLineRefused(t *testing.T) {
	dir := t.TempDir()
	writeEntries(t, dir, Options{}, 4)
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	raw = append(raw[:last+(len(raw)-last)/2], '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := ReadStats(dir); err != nil || st.Entries != 4 {
		t.Fatalf("stats of four whole lines: %+v (%v)", st, err)
	}
	before := refuses(t, dir, "at line 4")
	appendRecord(t, dir, 4)
	if after := refuses(t, dir, "at line 4"); after != before {
		t.Fatalf("after an append the journal refuses with %q, before it with %q", after, before)
	}
}

// TestBinaryWholeUndecodableFrameRefused: a frame whose crc holds but
// whose entry does not decode is no torn tail either. The reader refuses
// it, naming its offset, instead of ending the segment there and hiding
// every entry appended after it.
func TestBinaryWholeUndecodableFrameRefused(t *testing.T) {
	dir := t.TempDir()
	const n, bad = 80, 49
	writeEntries(t, dir, Options{Format: FormatBinary}, n)
	path := filepath.Join(dir, binJournalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seg, at := []byte(segMagic), 0
	fr := newFrameReader(bytes.NewReader(raw[len(segMagic):]), int64(len(segMagic)), int64(len(raw)))
	for {
		kind, payload, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seq, _ := binary.Varint(payload); seq == bad {
			at, payload = len(seg), payload[:len(payload)-1]
		}
		seg = appendFrame(seg, kind, payload)
	}
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("at offset %d", at)
	before := refuses(t, dir, where)
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, seg) {
		t.Fatalf("opening the directory changed a journal of whole frames (%v)", err)
	}
	for i := n; i < n+5; i++ {
		appendRecord(t, dir, i)
	}
	if after := refuses(t, dir, where); after != before {
		t.Fatalf("after appends the journal refuses with %q, before them with %q", after, before)
	}
	if st, err := ReadStats(dir); err != nil || st.Entries != n+5 {
		t.Fatalf("stats of %d whole frames: %+v (%v)", n+5, st, err)
	}
}
