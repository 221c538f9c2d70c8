package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"afex/internal/cluster"
	"afex/internal/core"
	"afex/internal/explore"
)

// The bytes a resume trusts: the framed snapshot (and the legacy JSON one
// it still reads), the segment frames and the journal position a
// snapshot records. The invariant
// is the shim pipe's: arbitrary input never panics and never sizes an
// allocation by a number it has not checked against the bytes present;
// it decodes, or it is an error or a clean truncation.

// fuzzSnapshot is a snapshot with every kind of key list in it — the
// aggregates', a portfolio's shared one, arms' and shards' histories, one
// of them the executed keys over again — and cluster sets that share
// stacks and frames.
func fuzzSnapshot() *core.SessionState {
	var entries []Entry
	for i := 0; i < 9; i++ {
		c, rec := testRecord(i)
		entries = append(entries, *entryFrom(0, c, rec))
	}
	st := testSnapshot(len(entries), entries)
	all, fail := cluster.NewSet(1), cluster.NewSet(1)
	for i, stack := range [][]string{{"main", "serve", "read"}, {"main", "serve", "write"}, {"main", "init"}, nil, {"main", "serve", "read"}} {
		all.Add(i, stack)
		if i%2 == 0 {
			fail.Add(i, stack)
		}
	}
	st.AllStacks, st.FailClusters = all.ExportState(), fail.ExportState()
	flat := func(keys ...string) *explore.State {
		return &explore.State{Algorithm: "random", Searches: []explore.SearchState{{History: explore.NewKeySet(keys).Keys()}}}
	}
	st.Explorer = &explore.State{Algorithm: "sharded-portfolio", RR: 1, Shards: []*explore.State{
		{Algorithm: "portfolio", Seen: explore.NewKeySet([]string{"0:1,2", "0:3,4"}).Keys(), Arms: []explore.ArmSnapshot{
			{Name: "fitness", Pulls: 2, State: flat("0:1,2", "")},
			{Name: "random", State: flat()},
		}},
		nil,
		flat(st.Aggregates.SeenKeys.Strings()...),
	}}
	return st
}

// snapFrame is one frame of a snapshot file, taken apart to be damaged.
type snapFrame struct {
	kind    byte
	payload []byte
}

func splitSnapshot(t testing.TB, raw []byte) []snapFrame {
	t.Helper()
	var frames []snapFrame
	fr := newFrameReader(bytes.NewReader(raw[len(snapMagic):]), int64(len(snapMagic)), int64(len(raw)))
	for {
		kind, payload, err := fr.next()
		if err == io.EOF && fr.off == int64(len(raw)) {
			return frames
		}
		if err != nil {
			t.Fatalf("snapshot frame at %d: %v", fr.off, err)
		}
		frames = append(frames, snapFrame{kind, payload})
	}
}

func joinSnapshot(frames []snapFrame) []byte {
	raw := []byte(snapMagic)
	for _, f := range frames {
		raw = appendFrame(raw, f.kind, f.payload)
	}
	return raw
}

// hostileSnapshots are files whose frames all pass their crc and say
// something no writer says: an id outside its table, a count the bytes
// cannot hold, a list that refers to itself, to a later or to a missing
// one. good must be a new-shape file of three or more key lists; each
// case is keyed by what the decoder's error must mention.
func hostileSnapshots(t testing.TB, good []byte) map[string][]byte {
	t.Helper()
	frames := splitSnapshot(t, good)
	if len(frames) < 5 || frames[0].kind != frameStateAt || frames[1].kind != frameSets {
		t.Fatalf("snapshot of %d frames is not state, sets and three key lists", len(frames))
	}
	with := func(at int, kind byte, payload func(e *segEnc)) []byte {
		var e segEnc
		payload(&e)
		damaged := slices.Clone(frames)
		damaged[at] = snapFrame{kind, e.buf}
		return joinSnapshot(damaged)
	}
	// One frame, one stack of it, and the head of a set with one cluster.
	tables := func(e *segEnc) {
		e.strs([]string{"main"})
		e.uint(1)
		e.uint(1)
		e.uint(0)
	}
	oneCluster := func(e *segEnc) {
		tables(e)
		e.bool(true)
		e.int(1)
		e.uint(1)
	}
	ref := func(to uint64) func(*segEnc) { return func(e *segEnc) { e.uint(to) } }
	last := len(frames) - 1
	return map[string][]byte{
		"frame id 5 in a table of 1": with(1, frameSets, func(e *segEnc) {
			e.strs([]string{"main"})
			e.uint(1)
			e.uint(1)
			e.uint(5)
		}),
		"stack id 7 in a table of 1": with(1, frameSets, func(e *segEnc) {
			oneCluster(e)
			e.uint(7)
		}),
		"truncated": with(1, frameSets, func(e *segEnc) { // a million members in four bytes
			oneCluster(e)
			e.uint(0)
			e.uint(1 << 20)
			e.int(1)
		}),
		"bytes past the last set": with(1, frameSets, func(e *segEnc) {
			tables(e)
			e.buf = append(e.buf, 0, 0, 0, 0)
		}),
		fmt.Sprintf("key list %d written as a reference to list %d", last-2, last-2): with(last, frameKeysRef, ref(uint64(last-2))),
		fmt.Sprintf("key list %d written as a reference to list %d", last-3, last-2): with(last-1, frameKeysRef, ref(uint64(last-2))),
		fmt.Sprintf("key list %d written as a reference to list 99", last-2):         with(last, frameKeysRef, ref(99)),
		"2 bytes past the last key": with(2, frameKeys, func(e *segEnc) {
			e.uint(2)
			e.str("abc")
			e.str("d")
			e.buf = append(e.buf, 0xEE, 0xEE)
		}),
		fmt.Sprintf("1 bytes past the reference of key list %d", last-2): with(last, frameKeysRef, func(e *segEnc) {
			e.uint(0)
			e.byte(0xEE)
		}),
	}
}

// setsFootprint counts what decoding st's cluster sets allocated, in
// elements: clusters, member ids, memory entries, and the frames of each
// stack once however many places share it.
func setsFootprint(st *core.SessionState) int {
	n := 0
	seen := map[*string]bool{}
	stack := func(s []string) {
		if len(s) > 0 && !seen[&s[0]] {
			seen[&s[0]] = true
			n += len(s)
		}
	}
	for _, p := range clusterSets(st) {
		if *p == nil {
			continue
		}
		n += len((*p).Clusters) + len((*p).Stacks)
		for _, c := range (*p).Clusters {
			n += len(c.Members)
			stack(c.Representative)
		}
		for _, s := range (*p).Stacks {
			stack(s)
		}
	}
	return n
}

// arenaBytes is what a decoded key list needs of the payload it was
// decoded in: its keys' bytes and, per key, the length prefix it had —
// at least one byte — which is where its end offset comes from. A list
// that needs more than its bytes was sized by a number they do not back.
func arenaBytes(k *explore.Keys) int {
	n := k.Len()
	for i := 0; i < k.Len(); i++ {
		n += len(k.At(i))
	}
	return n
}

func FuzzSnapshotDecode(f *testing.F) {
	framed, err := snapshotBytes(fuzzSnapshot(), 77)
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := json.Marshal(fuzzSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	inline, err := referenceAppendSnapshot(nil, fuzzSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(framed)
	f.Add(inline)
	for _, raw := range hostileSnapshots(f, framed) {
		f.Add(raw)
	}
	f.Add(framed[:len(framed)-7])
	f.Add(framed[:len(snapMagic)+40])
	f.Add(legacy)
	f.Add([]byte(`{"seq":9,"elapsed":5,"aggregates":{"injected":3,"seenKeys":["0:1","0:2"]}}`))
	f.Add([]byte("{\n \"elapsed\": 5,\n \"covered\": [1, 2],\n \"seq\": 7\n}"))
	f.Add([]byte(snapMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		file := snapFile{size: int64(len(data))}
		st, err := decodeSnapshot(bytes.NewReader(data), &file, snapFull)
		if err != nil {
			return
		}
		for _, list := range keyLists(st) {
			if n := arenaBytes(*list); n > len(data) {
				t.Fatalf("%d bytes of snapshot decoded to a key list that takes %d", len(data), n)
			}
		}
		if n := setsFootprint(st); n > len(data) {
			t.Fatalf("%d bytes of snapshot decoded to cluster sets of %d elements", len(data), n)
		}
		// What decodes writes back as a file that decodes to the same.
		again, err := snapshotBytes(st, file.pos)
		if err != nil {
			return // a legacy snapshot can hold a float the encoder refuses
		}
		file2 := snapFile{size: int64(len(again))}
		st2, err := decodeSnapshot(bytes.NewReader(again), &file2, snapFull)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		a, b := keyLists(st), keyLists(st2)
		if len(a) != len(b) {
			t.Fatalf("snapshot with %d key lists re-decodes to %d", len(a), len(b))
		}
		for i := range a {
			if !(*a[i]).Equal(*b[i]) {
				t.Fatalf("key list %d: %q re-decodes to %q", i, (*a[i]).Strings(), (*b[i]).Strings())
			}
		}
		headFile := snapFile{size: int64(len(again))}
		head, err := decodeSnapshot(bytes.NewReader(again), &headFile, snapSeq)
		if err != nil || head.Seq != st.Seq || st2.Seq != st.Seq {
			t.Fatalf("seq %d re-decodes to %d, and to %v (%v) from the state frame alone", st.Seq, st2.Seq, head, err)
		}
		if file2.pos != file.pos || headFile.pos != file.pos {
			t.Fatalf("position %d re-decodes to %d, and to %d from the state frame alone", file.pos, file2.pos, headFile.pos)
		}
		// The file is a function of the state it decodes to, sets and
		// references included; and its headers count the keys it lists.
		if third, err := snapshotBytes(st2, file2.pos); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("a decoded snapshot encodes to %d bytes, not the %d it was decoded from (%v)", len(third), len(again), err)
		}
		shape := snapFile{size: int64(len(again))}
		if _, err := decodeSnapshot(bytes.NewReader(again), &shape, snapShape); err != nil || len(shape.keyCounts) != len(b) {
			t.Fatalf("frame headers list %v keys in a snapshot of %d lists (%v)", shape.keyCounts, len(b), err)
		}
		for i, n := range shape.keyCounts {
			if n != (*b[i]).Len() {
				t.Fatalf("frame headers say list %d holds %d keys, it holds %d", i, n, (*b[i]).Len())
			}
		}
	})
}

// FuzzSnapshotPayloads: the sets and key-list decoders behind the crc,
// which a mutated file rarely gets past. Fed the payload alone, they
// decode it or refuse it, size nothing by a number the bytes cannot back,
// and what decodes encodes to bytes that decode to the same — a key list
// to exactly the payload: its count, then its records.
func FuzzSnapshotPayloads(f *testing.F) {
	framed, err := snapshotBytes(fuzzSnapshot(), 77)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(splitSnapshot(f, framed)[1].payload)
	for _, raw := range hostileSnapshots(f, framed) {
		for _, frame := range splitSnapshot(f, raw)[1:] {
			f.Add(frame.payload)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if keys, err := decodeKeys(slices.Clone(data)); err == nil {
			if arenaBytes(keys) > len(data) {
				t.Fatalf("%d bytes decoded to %d keys that take %d", len(data), keys.Len(), arenaBytes(keys))
			}
			again := binary.AppendUvarint(nil, uint64(keys.Len()))
			if again = bytes.Join(append([][]byte{again}, keys.Records()...), nil); !bytes.Equal(again, data) {
				t.Fatalf("key payload %x decodes to %q, which encodes as %x", data, keys.Strings(), again)
			}
		}
		sets, err := decodeSets(data)
		if err != nil {
			return
		}
		st := &core.SessionState{AllStacks: sets[0], FailClusters: sets[1], CrashClusters: sets[2]}
		if n := setsFootprint(st); n > len(data) {
			t.Fatalf("%d bytes decoded to cluster sets of %d elements", len(data), n)
		}
		again := splitSnapshot(t, append([]byte(snapMagic), setsFrameBytes(sets)...))[0].payload
		if sets2, err := decodeSets(again); err != nil || !reflect.DeepEqual(sets, sets2) {
			t.Fatalf("re-encoded sets decode to %+v (%v), not %+v", sets2, err, sets)
		}
	})
}

func FuzzSegmentFrames(f *testing.F) {
	var enc segEnc
	var seg []byte
	for i := 0; i < 5; i++ {
		c, rec := testRecord(i)
		enc.encodeEntry(entryFrom(0, c, rec))
		seg = appendFrame(seg, frameEntry, enc.bytes())
	}
	seg = appendFrame(seg, frameIndex, []byte{5, 0}) // an earlier build's index frame: next seq 5, no previous one
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(append([]byte{frameEntry, 0xff, 0xff, 0xff, 0xff, 0x0f}, seg...))
	f.Add([]byte{frameKeys, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data), 0, int64(len(data)))
		for frames := 0; ; frames++ {
			at := fr.off
			kind, payload, err := fr.next()
			if err != nil {
				if err != io.EOF && fr.off != at {
					t.Fatalf("a frame that failed (%v) moved the offset from %d to %d", err, at, fr.off)
				}
				return
			}
			if fr.off <= at || fr.off > int64(len(data)) || len(payload) > len(data) || frames > len(data) {
				t.Fatalf("frame %d of %d bytes: offset %d -> %d, payload %d", frames, len(data), at, fr.off, len(payload))
			}
			if kind != frameEntry {
				continue
			}
			en, err := decodeEntry(payload)
			if err != nil {
				continue
			}
			if len(en.Fault)+len(en.Plan)+len(en.Stack)+len(en.Blocks) > len(payload) {
				t.Fatalf("%d payload bytes decoded to %d list elements", len(payload), len(en.Fault)+len(en.Plan)+len(en.Stack)+len(en.Blocks))
			}
			// An entry that decodes encodes to bytes that decode to it.
			enc.encodeEntry(&en)
			first := append([]byte(nil), enc.bytes()...)
			en2, err := decodeEntry(first)
			if err != nil {
				t.Fatalf("re-encoded entry does not decode: %v", err)
			}
			if enc.encodeEntry(&en2); !bytes.Equal(first, enc.bytes()) {
				t.Fatalf("entry %+v re-decodes to %+v", en, en2)
			}
		}
	})
}

// FuzzTailPosition: the journal position a snapshot records is trusted
// only where it holds the entry before the snapshot. Whatever (seq,
// offset) pair a snapshot over a real journal carries, opening the
// directory leaves the journal as it was, the tail read returns exactly
// the journal's entries from seq on or refuses, and Recover then takes
// the tail it returned or the full journal with the refusal as its
// reason.
func FuzzTailPosition(f *testing.F) {
	const n = 100
	dir := f.TempDir()
	all := journalWithSnapshot(f, dir, Options{Format: FormatBinary}, n, 50)
	journal := filepath.Join(dir, binJournalName)
	raw, err := os.ReadFile(journal)
	if err != nil {
		f.Fatal(err)
	}
	var offs []int64 // each entry frame's offset
	fr := newFrameReader(bytes.NewReader(raw[len(segMagic):]), int64(len(segMagic)), int64(len(raw)))
	for at := fr.off; ; at = fr.off {
		if _, _, err := fr.next(); err != nil {
			break
		}
		offs = append(offs, at)
	}
	if len(offs) != n {
		f.Fatalf("fixture journal holds %d frames, want %d", len(offs), n)
	}
	f.Add(50, offs[49])   // where the writer put it
	f.Add(50, offs[48])   // the entry before
	f.Add(50, offs[49]+1) // inside the frame
	f.Add(n, offs[n-1])   // an empty tail
	f.Add(n+3, offs[n-1]) // ahead of the journal
	f.Add(1, int64(len(segMagic)))
	f.Add(0, int64(0))
	f.Add(-5, int64(1)<<62)
	f.Fuzz(func(t *testing.T, seq int, pos int64) {
		snap := testSnapshot(min(max(seq, 0), n), all)
		snap.Seq = seq
		file, err := snapshotBytes(snap, pos)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotName), file, 0o644); err != nil {
			t.Fatal(err)
		}
		got, why := tailOf(dir, FormatBinary, Meta{}, snap, pos)
		if why == "" && (seq <= 0 || seq > n || len(got) != n-seq) {
			t.Fatalf("snapshot at %d, position %d: a tail of %d entries, want the journal's from %d", seq, pos, len(got), seq)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], all[seq+i]) {
				t.Fatalf("snapshot at %d, position %d: tail entry %d is %+v, want %+v", seq, pos, i, got[i], all[seq+i])
			}
		}
		s, err := OpenOptions(dir, Options{TailResume: true})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Recover()
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if now, err := os.ReadFile(journal); err != nil || !bytes.Equal(now, raw) {
			t.Fatalf("snapshot at %d, position %d: opening the directory changed the journal (%v)", seq, pos, err)
		}
		switch {
		case why == "" && (r.Info.Path != "tail" || r.Base != seq || len(r.Records) != n-seq):
			t.Fatalf("snapshot at %d, position %d: the tail read took %d entries, Recover %+v with %d records", seq, pos, len(got), r.Info, len(r.Records))
		case why != "" && (r.Info.Path != "full-journal" || r.Info.Reason != why || len(r.Records) != n):
			t.Fatalf("snapshot at %d, position %d: refused (%s), Recover %+v with %d records", seq, pos, why, r.Info, len(r.Records))
		}
	})
}

// FuzzJournalAppend: the end rule, for any bytes in either format.
// Whatever the live journal reads as — entries, or a refusal — opening
// its directory, journaling one record with a new key and closing it
// give back those entries and that record, or the same refusal: torn
// bytes are truncated before the append, never fused with it, and a
// whole entry that does not decode stays where it is and is refused. The
// first byte picks the format, the rest is the journal.
func FuzzJournalAppend(f *testing.F) {
	for _, format := range []string{FormatJSONL, FormatBinary} {
		dir := f.TempDir()
		writeEntries(f, dir, Options{Format: format}, 3)
		name, pick := journalName, byte(0)
		if format == FormatBinary {
			name, pick = binJournalName, 1
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		flipped := slices.Clone(raw)
		flipped[len(flipped)-7] ^= 0x20
		for _, journal := range [][]byte{raw, raw[:len(raw)-9], flipped, append(slices.Clone(raw[:len(raw)-9]), raw...), raw[:5], nil} {
			f.Add(append([]byte{pick}, journal...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dir := t.TempDir()
		name := journalName
		if data[0]&1 == 1 {
			name = binJournalName
		}
		if err := os.WriteFile(filepath.Join(dir, name), data[1:], 0o644); err != nil {
			t.Fatal(err)
		}
		before, refusal := ReadJournal(dir)
		keys := make(map[string]bool, len(before))
		for i := range before {
			keys[before[i].Key()] = true
		}
		c, rec := testRecord(0)
		for keys[c.Point.Key()] {
			c, rec = testRecord(rec.ID + 1)
		}
		if s, err := Open(dir); err == nil {
			s.JournalRecord(c, rec)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		} else if refusal == nil {
			t.Fatalf("Open refuses a journal of %d entries: %v", len(before), err)
		}
		after, err := ReadJournal(dir)
		switch {
		case refusal != nil && (err == nil || err.Error() != refusal.Error()):
			t.Fatalf("a journal refused with %q reads, after an append, as %d entries (%v)", refusal, len(after), err)
		case refusal == nil && err != nil:
			t.Fatalf("a journal of %d entries refuses after an append: %v", len(before), err)
		case refusal == nil && (len(after) != len(before)+1 || len(before) > 0 && !reflect.DeepEqual(after[:len(before)], before) || !reflect.DeepEqual(after[len(before)], *entryFrom(0, c, rec))):
			t.Fatalf("a journal of %d entries reads, after an append, as %d", len(before), len(after))
		}
	})
}

// TestDamagedSnapshotFallsBack: a snapshot torn at any length, with a
// byte flipped anywhere, or with whole frames that say what no writer
// says never fails the open or the recovery. Either the damage is caught
// — crc, framing, JSON, an id or a reference out of range — and the
// journal alone rebuilds every record, with the reason on the restore, or
// (a flip inside the magic makes the file legacy JSON, which it is not)
// likewise.
func TestDamagedSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	const n, snapAt = 60, 50
	writeEntries(t, dir, Options{Format: FormatBinary}, n)
	all, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(snapAt, all)
	snap.Explorer = &explore.State{Algorithm: "random", Searches: []explore.SearchState{{History: snap.Aggregates.SeenKeys}}}
	s.SnapshotSession(snap)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recover := func(raw []byte) *core.Restore {
		t.Helper()
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenOptions(dir, Options{TailResume: true})
		if err != nil {
			t.Fatalf("open with a damaged snapshot: %v", err)
		}
		defer s.Close()
		r, err := s.Recover()
		if err != nil || r == nil {
			t.Fatalf("recover with a damaged snapshot: %v, %v", r, err)
		}
		return r
	}
	if r := recover(whole); r.Info.Path != "tail" || r.Base != snapAt || r.Info.Entries != n-snapAt || r.Seen.Len() != n {
		t.Fatalf("undamaged snapshot: %+v, base %d, %d keys", r.Info, r.Base, r.Seen.Len())
	}
	check := func(what, reason string, raw []byte) {
		t.Helper()
		r := recover(raw)
		if r.Info.Path != "full-journal" || r.Info.Reason == "" || r.Base != 0 || len(r.Records) != n || r.State != nil || r.Seen.Len() != n {
			t.Fatalf("%s: %+v, base %d, %d records, state %v", what, r.Info, r.Base, len(r.Records), r.State != nil)
		}
		// The reason is what `afex status` prints on its resumed line.
		if !strings.Contains(r.Info.Reason, reason) || !strings.Contains(r.Info.String(), reason) {
			t.Fatalf("%s: resumed %q, which does not say %q", what, r.Info.String(), reason)
		}
	}
	for cut := 0; cut < len(whole); cut += 7 {
		check("torn", snapshotName, whole[:cut])
	}
	for at := 0; at < len(whole); at += 11 {
		raw := append([]byte(nil), whole...)
		raw[at] ^= 0x20
		check("flipped", snapshotName, raw)
	}
	for reason, raw := range hostileSnapshots(t, whole) {
		check("hostile", reason, raw)
	}
	// A reference to an earlier list is what the writer wrote.
	if frames := splitSnapshot(t, whole); frames[len(frames)-1].kind != frameKeysRef {
		t.Fatalf("the history that repeats the executed keys was written as frame kind %d", frames[len(frames)-1].kind)
	}
}

// TestKeyFramesRefuseWhatNoWriterWrote: a key-list payload with bytes
// after its records, or with a length wider than the writer writes it,
// is no frame a writer wrote; the first used to decode to its records
// alone. hostileSnapshots holds it, and a reference with a byte past it,
// in crc-valid files that TestDamagedSnapshotFallsBack resumes by the
// full journal, with the reason.
func TestKeyFramesRefuseWhatNoWriterWrote(t *testing.T) {
	for payload, reason := range map[string]string{
		"\x02\x03abc\x01d\xee\xee": "2 bytes past the last key",
		"\x01\x81\x00a":            "malformed key list",
		"\x81\x00\x01a":            "malformed key list",
	} {
		if keys, err := decodeKeys([]byte(payload)); err == nil || !strings.Contains(err.Error(), reason) {
			t.Errorf("payload %x decodes to %q (%v), want %q", payload, keys.Strings(), err, reason)
		}
	}
	if keys, err := decodeKeys([]byte("\x02\x03abc\x01d")); err != nil || !reflect.DeepEqual(keys.Strings(), []string{"abc", "d"}) {
		t.Fatalf("the list without them decodes to %q (%v)", keys.Strings(), err)
	}
}

// TestKeyRecordEdgesRoundTrip: the empty key and keys of 128 bytes and
// more — whose records start with a two-byte length — come back from a
// snapshot as they went in, byte for byte, and a set over them finds
// each.
func TestKeyRecordEdgesRoundTrip(t *testing.T) {
	keys := []string{"", strings.Repeat("a", 128), "0:1,2", strings.Repeat("a", 127), strings.Repeat("b", 20000)}
	st := &core.SessionState{Seq: len(keys), Aggregates: &core.Aggregates{SeenKeys: explore.NewKeySet(keys).Keys()}}
	raw, err := snapshotBytes(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	back, _ := decodeBytes(t, raw)
	got := back.Aggregates.SeenKeys
	if !got.Equal(st.Aggregates.SeenKeys) || !reflect.DeepEqual(got.Strings(), keys) {
		t.Fatalf("keys of %d bytes come back as %d keys", len(raw), got.Len())
	}
	if again, err := snapshotBytes(back, 0); err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("the decoded keys write %d bytes, not the %d read (%v)", len(again), len(raw), err)
	}
	set := got.Set()
	for _, k := range keys {
		if !set.Has(k) || set.Add(k) {
			t.Fatalf("a set over the decoded list does not hold the key of %d bytes", len(k))
		}
	}
}
