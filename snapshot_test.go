package afex

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"afex/internal/cluster"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
	"afex/internal/store"
)

// Snapshot shape tests. snapshot.afexs holds each distinct stack and
// each distinct list of executed keys once, in fold order, in frames of
// their own; the same file once kept the cluster sets in its JSON and
// wrote every list in full; before it there was snapshot.json, all JSON,
// which once listed every stack occurrence and sorted keys, indented.
// Every shape must resume to the same session, and the new one must stay
// a function of the seed.

// killedSession runs opts until killAt folds and abandons the engine
// without Finish, as resume_test.go does: only the store's writes
// survive. SnapshotEvery 1 pins the snapshot to the kill point.
func killedSession(t *testing.T, opts Options, killAt int) {
	t.Helper()
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
}

func resumedSession(t *testing.T, opts Options) *Result {
	t.Helper()
	opts.Resume = true
	opts.StateStamp = "run-1"
	res, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// copyStateDir copies a closed state directory (the lock file stays
// behind).
func copyStateDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	files, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Name() == "lock" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(from, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, f.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// loadSnapshot reads a closed state directory's snapshot through the
// store, whichever file it is in.
func loadSnapshot(t *testing.T, dir string) *core.SessionState {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.LoadSnapshot()
	if err != nil || st == nil {
		t.Fatalf("snapshot of %s: %v, %v", dir, st, err)
	}
	return st
}

// snapshotBytes returns dir's snapshot file with the wall clock pinned:
// the snapshot written again through the store with Elapsed zeroed.
func snapshotBytes(t *testing.T, dir string) []byte {
	t.Helper()
	st := loadSnapshot(t, dir)
	st.Elapsed = 0
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SnapshotSession(st)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.afexs"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("AFEXSNP1")) {
		t.Fatalf("snapshot.afexs starts %q, not with the snapshot magic", raw[:8])
	}
	return raw
}

// eachKeyList calls fn on every executed-key list of a snapshot, in the
// order the file holds them: the aggregates', then the explorer's.
func eachKeyList(st *core.SessionState, fn func(**explore.Keys)) {
	if st.Aggregates != nil {
		fn(&st.Aggregates.SeenKeys)
	}
	var walk func(*explore.State)
	walk = func(ex *explore.State) {
		if ex == nil {
			return
		}
		fn(&ex.Seen)
		for i := range ex.Searches {
			fn(&ex.Searches[i].History)
		}
		for _, sh := range ex.Shards {
			walk(sh)
		}
		for i := range ex.Arms {
			walk(ex.Arms[i].State)
		}
	}
	walk(st.Explorer)
}

// sortKeys replaces a key list with its keys sorted.
func sortKeys(l **explore.Keys) {
	if *l != nil {
		keys := (*l).Strings()
		sort.Strings(keys)
		*l = explore.NewKeySet(keys).Keys()
	}
}

// rewriteSnapshotLegacy replaces dir's snapshot with the only one a
// directory written before snapshot.afexs holds: snapshot.json, key
// lists as JSON arrays, in the shape written before the memory
// deduplicated — stacks repeated per occurrence (adjacent, the list
// being sorted), every key list sorted, indented.
func rewriteSnapshotLegacy(t *testing.T, dir string) {
	t.Helper()
	st := *loadSnapshot(t, dir)
	if st.Aggregates == nil || st.Explorer == nil || len(st.AllStacks.Stacks) == 0 {
		t.Fatalf("snapshot at seq %d is too empty to exercise the legacy shape", st.Seq)
	}
	for _, set := range []*cluster.SetState{st.AllStacks, st.FailClusters, st.CrashClusters} {
		var repeated [][]string
		for i, stack := range set.Stacks {
			for n := 0; n <= i%3; n++ {
				repeated = append(repeated, stack)
			}
		}
		set.Stacks = repeated
	}
	eachKeyList(&st, sortKeys)
	raw, err := json.MarshalIndent(&st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "snapshot.afexs")); err != nil {
		t.Fatal(err)
	}
}

// rewriteSnapshotFramedJSON replaces dir's snapshot with the same state
// in the file's earlier shape: behind the magic, a frame (kind 3) of the
// uvarint seq and the state as JSON, cluster sets included and the key
// lists elided, then a frame (kind 4) per list, every list in full —
// uvarint count, then uvarint length and bytes per key. A frame is its
// kind, the uvarint payload length, the payload, and the little-endian
// IEEE crc32 of kind and payload. (internal/store keeps that writer itself
// as its codec's oracle; testdata/oldbuild there is a directory it wrote.)
func rewriteSnapshotFramedJSON(t *testing.T, dir string) {
	t.Helper()
	st := loadSnapshot(t, dir)
	var lists [][]byte
	eachKeyList(st, func(l **explore.Keys) {
		payload := binary.AppendUvarint(nil, uint64((*l).Len()))
		for _, k := range (*l).Strings() {
			payload = append(binary.AppendUvarint(payload, uint64(len(k))), k...)
		}
		lists, *l = append(lists, payload), nil
	})
	state, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	raw := snapFrame([]byte("AFEXSNP1"), 3, append(binary.AppendUvarint(nil, uint64(st.Seq)), state...))
	for _, payload := range lists {
		raw = snapFrame(raw, 4, payload)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.afexs"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// snapFrame appends one frame of a snapshot file: its kind, the uvarint
// payload length, the payload, and the little-endian IEEE crc32 of kind
// and payload.
func snapFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(binary.AppendUvarint(append(dst, kind), uint64(len(payload))), payload...)
	crc := crc32.Update(crc32.ChecksumIEEE([]byte{kind}), crc32.IEEETable, payload)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// rewriteSnapshotRingSession gives dir's snapshot the one key a session
// run with the removed prefetch ring added to the state frame's JSON;
// the frames behind it stay as they are.
func rewriteSnapshotRingSession(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "snapshot.afexs")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const magic = "AFEXSNP1"
	size, w := binary.Uvarint(raw[len(magic)+1:])
	body := len(magic) + 1 + w
	end := body + int(size)
	// Kind 7: the uvarint seq and journal position, then the JSON.
	if raw[len(magic)] != 7 || w <= 0 || raw[end-1] != '}' {
		t.Fatalf("snapshot.afexs does not open with a state frame of JSON")
	}
	payload := append(append([]byte{}, raw[body:end-1]...), `,"prefetch":{"depth":64,"generated":128}}`...)
	out := append(snapFrame([]byte(magic), 7, payload), raw[end+4:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// canonicalSnapshot renders dir's snapshot with the wall clock pinned
// and every key list sorted: equal for two sessions that hold the same
// state, whatever order an older shape handed them their keys in.
func canonicalSnapshot(t *testing.T, dir string) []byte {
	t.Helper()
	st := loadSnapshot(t, dir)
	st.Elapsed = 0
	eachKeyList(st, sortKeys)
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLegacySnapshotShapeResumes: a state directory holding only an
// old-shape snapshot — snapshot.json, the framed file with its sets in
// the JSON, or today's file with the "prefetch" key a ring session wrote
// — resumes to the record-for-record continuation the new file gives,
// and that resume leaves its snapshot in the new shape, holding the same
// state, and snapshot.json gone.
func TestLegacySnapshotShapeResumes(t *testing.T) {
	const total, killAt = 120, 59
	for _, algo := range []string{FitnessGuided, Portfolio} {
		for _, format := range []string{JournalJSONL, JournalBinary} {
			t.Run(fmt.Sprintf("%s/%s", algo, format), func(t *testing.T) {
				mkOpts := func(dir string) Options {
					o := resumeOptions(3, total, dir)
					o.Algorithm = algo
					o.JournalFormat = format
					return o
				}
				dir := t.TempDir()
				killedSession(t, mkOpts(dir), killAt)
				legacy := map[string]string{store.SnapshotJSON: copyStateDir(t, dir), store.SnapshotFramedJSON: copyStateDir(t, dir), store.SnapshotFramed: copyStateDir(t, dir)}
				rewriteSnapshotLegacy(t, legacy[store.SnapshotJSON])
				rewriteSnapshotFramedJSON(t, legacy[store.SnapshotFramedJSON])
				rewriteSnapshotRingSession(t, legacy[store.SnapshotFramed])

				want := resumedSession(t, mkOpts(dir))
				if want.Executed != total {
					t.Fatalf("resumed session executed %d, want %d", want.Executed, total)
				}
				for shape, legacyDir := range legacy {
					if stats, err := ReadStateStats(legacyDir); err != nil || stats.SnapshotFormat != shape || stats.SnapshotSeq != killAt {
						t.Fatalf("rewritten snapshot reads as %+v (%v), want a %s one at %d", stats, err, shape, killAt)
					}
					got := resumedSession(t, mkOpts(legacyDir))
					if got.Executed != total {
						t.Fatalf("%s: resumed session executed %d, want %d", shape, got.Executed, total)
					}
					if got.Base() != want.Base() || len(got.Records) != len(want.Records) {
						t.Fatalf("%s shape resumed from base %d with %d records, new shape from %d with %d",
							shape, got.Base(), len(got.Records), want.Base(), len(want.Records))
					}
					for i := range want.Records {
						a, b := want.Records[i], got.Records[i]
						if a.Scenario != b.Scenario || a.Impact != b.Impact || a.Fitness != b.Fitness || a.Cluster != b.Cluster {
							t.Fatalf("record %d diverges under the %s snapshot shape:\n got %q impact=%v fitness=%v cluster=%d\nwant %q impact=%v fitness=%v cluster=%d",
								a.ID, shape, b.Scenario, b.Impact, b.Fitness, b.Cluster, a.Scenario, a.Impact, a.Fitness, a.Cluster)
						}
					}
					if got.UniqueFailures != want.UniqueFailures || got.UniqueCrashes != want.UniqueCrashes {
						t.Fatalf("%s shape ends with %d/%d clusters, new shape with %d/%d",
							shape, got.UniqueFailures, got.UniqueCrashes, want.UniqueFailures, want.UniqueCrashes)
					}
					if _, err := os.Stat(filepath.Join(legacyDir, "snapshot.json")); !os.IsNotExist(err) {
						t.Fatalf("snapshot.json outlived the resume (stat: %v)", err)
					}
					// Same state in the same shape. The keys an old snapshot
					// listed sorted stay in that order, so a history that
					// kept it is not the journal's list over again and is
					// written in full: the files compare by what they hold.
					if stats, err := ReadStateStats(legacyDir); err != nil || stats.SnapshotFormat != store.SnapshotFramed || stats.SnapshotKeys != total {
						t.Fatalf("%s: the resume left a snapshot that reads as %+v (%v)", shape, stats, err)
					}
					if a, b := canonicalSnapshot(t, legacyDir), canonicalSnapshot(t, dir); !bytes.Equal(a, b) {
						t.Fatalf("the resume from the %s shape left a different state:\n got %s\nwant %s", shape, a, b)
					}
				}
			})
		}
	}
}

// TestSnapshotBytesDeterministic: two same-seed sequential sessions write
// byte-identical snapshots apart from the wall clock — uninterrupted, and
// killed and resumed at the same point.
func TestSnapshotBytesDeterministic(t *testing.T) {
	const total, killAt = 150, 71
	for _, algo := range []string{FitnessGuided, Portfolio} {
		for _, format := range []string{JournalJSONL, JournalBinary} {
			t.Run(fmt.Sprintf("%s/%s", algo, format), func(t *testing.T) {
				snapshots := func(resume bool) [2][]byte {
					var out [2][]byte
					for i := range out {
						dir := t.TempDir()
						opts := resumeOptions(5, total, dir)
						opts.Algorithm = algo
						opts.JournalFormat = format
						if resume {
							killedSession(t, opts, killAt)
							resumedSession(t, opts)
						} else if _, err := Explore(opts); err != nil {
							t.Fatal(err)
						}
						out[i] = snapshotBytes(t, dir)
					}
					return out
				}
				for _, resume := range []bool{false, true} {
					if s := snapshots(resume); !bytes.Equal(s[0], s[1]) {
						t.Fatalf("resume=%v: same-seed sessions wrote different snapshot bytes (%d vs %d)", resume, len(s[0]), len(s[1]))
					}
				}
			})
		}
	}
}

// TestSnapshotSharesListsWithLiveSession: a snapshot's key lists are
// views of lists the session keeps appending to, encoded by the store's
// writer while folding goes on. With four workers and a snapshot every
// other fold the two overlap constantly — run under -race in CI — and
// every snapshot must still be the session as of its own seq: here the
// last one, which a resumed run then continues without re-executing.
// That run shares too: its four workers generate through the novelty
// filter, which reads the store's frozen key set under the explorer
// lock, while their folds probe the same set under the session lock and
// add this run's keys beside it.
func TestSnapshotSharesListsWithLiveSession(t *testing.T) {
	const total, more = 400, 200
	for _, algo := range []string{FitnessGuided, Portfolio} {
		t.Run(algo, func(t *testing.T) {
			for _, format := range []string{JournalJSONL, JournalBinary} {
				t.Run(format, func(t *testing.T) {
					dir := t.TempDir()
					opts := resumeOptions(11, total, dir)
					opts.Algorithm = algo
					opts.JournalFormat = format
					opts.Workers = 4
					opts.Batch = 4
					opts.SnapshotEvery = 2
					if _, err := Explore(opts); err != nil {
						t.Fatal(err)
					}
					st := loadSnapshot(t, dir)
					if st.Seq != total || st.Aggregates.SeenKeys.Len() != total {
						t.Fatalf("final snapshot has seq %d and %d executed keys, want %d of each", st.Seq, st.Aggregates.SeenKeys.Len(), total)
					}
					distinct := make(map[string]bool, total)
					for _, k := range st.Aggregates.SeenKeys.Strings() {
						distinct[k] = true
					}
					if len(distinct) != total {
						t.Fatalf("snapshot lists %d distinct executed keys, want %d", len(distinct), total)
					}

					opts.Iterations = total + more
					res := resumedSession(t, opts)
					if res.Executed != total+more {
						t.Fatalf("resumed session executed %d, want %d", res.Executed, total+more)
					}
					for _, rec := range res.Records {
						if rec.ID >= total && distinct[rec.Point.Key()] {
							t.Fatalf("scenario %s executed again after resume", rec.Point.Key())
						}
					}
					if st = loadSnapshot(t, dir); st.Aggregates.SeenKeys.Len() != total+more {
						t.Fatalf("resumed session's snapshot lists %d executed keys, want %d", st.Aggregates.SeenKeys.Len(), total+more)
					}
				})
			}
		})
	}
}

// TestResumedSnapshotEqualsUninterrupted: a sequential session killed
// after a snapshot and resumed to the budget leaves the final snapshot an
// uninterrupted one leaves — key lists, cluster sets and explorer state
// element for element, nothing sorted on either side. The resumed engine
// starts from the store's key set, in fold order, and lists this run's
// keys behind it; a sorted or map-ordered start would show here.
func TestResumedSnapshotEqualsUninterrupted(t *testing.T) {
	const total, killAt = 150, 71
	for _, tc := range []struct {
		name, algo string
		shards     int
	}{{"fitness", FitnessGuided, 0}, {"portfolio", Portfolio, 0}, {"sharded-random", Random, 3}} {
		for _, format := range []string{JournalJSONL, JournalBinary} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, format), func(t *testing.T) {
				final := func(kill bool) []byte {
					dir := t.TempDir()
					opts := resumeOptions(9, total, dir)
					opts.Algorithm, opts.Shards, opts.JournalFormat = tc.algo, tc.shards, format
					if kill {
						killedSession(t, opts, killAt)
						if res := resumedSession(t, opts); res.Executed != total {
							t.Fatalf("resumed session executed %d, want %d", res.Executed, total)
						}
					} else if _, err := Explore(opts); err != nil {
						t.Fatal(err)
					}
					st := loadSnapshot(t, dir)
					if n := st.Aggregates.SeenKeys.Len(); st.Seq != total || n != total {
						t.Fatalf("final snapshot at seq %d lists %d keys, want %d", st.Seq, n, total)
					}
					st.Elapsed = 0
					raw, err := json.Marshal(st)
					if err != nil {
						t.Fatal(err)
					}
					return raw
				}
				if want, got := final(false), final(true); !bytes.Equal(want, got) {
					t.Fatalf("resumed session's final snapshot differs from the uninterrupted one's:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// keyHeavySession is a session whose snapshot is mostly executed keys:
// a four-test target that hardly ever injects, under a space of 1.2 M
// points, so clusters, coverage and journal entries stay small.
func keyHeavySession(dir string, entries int) Options {
	target := &System{
		Name: "tiny",
		Routines: map[string]*prog.Routine{
			"serve": {Name: "serve", Module: "srv", Ops: []prog.Op{
				{Func: "read", Repeat: 2, OnError: prog.Tolerate, Block: 1},
				{Func: "malloc", OnError: prog.Tolerate, Block: 2},
				{Func: "write", Repeat: 2, OnError: prog.Tolerate, Block: 3},
			}},
		},
		TestSuite: []prog.Test{
			{Name: "t0", Script: []string{"serve"}}, {Name: "t1", Script: []string{"serve"}},
			{Name: "t2", Script: []string{"serve"}}, {Name: "t3", Script: []string{"serve"}},
		},
		NumBlocks: 3,
	}
	if err := target.Validate(); err != nil {
		panic(err)
	}
	return Options{
		Target: target,
		Space: faultspace.NewUnion(faultspace.New("tiny",
			faultspace.IntAxis("testID", 0, 3),
			faultspace.SetAxis("function", "read", "malloc", "write"),
			faultspace.IntAxis("callNumber", 1, 100000))),
		Algorithm:     Random,
		Iterations:    entries,
		StateDir:      dir,
		JournalFormat: JournalBinary,
		Explore:       ExploreOptions{Seed: 4},
	}
}

// TestResumeCostsTheSnapshot pins what a tail resume pays before its
// first lease, and for its first lease and fold, by counting rather than
// timing. The executed keys are indexed exactly once: the store decodes
// the snapshot's list into an arena, extends it with the tail's keys and
// builds one table over all of them; the engine and the novelty filter
// read that set, and the explorer's history — written in the snapshot as
// a reference to the same list — is a set on the same arena that follows
// it through the tail replay. Everything allocated from opening the
// directory to the first Lease stays within a small multiple of the
// snapshot file, which holds the keys once: per key, the frame it is read
// in and compacted in place (~12 bytes), a 4-byte end offset (copied once
// more when the tail's keys join it) and 8 to 16 bytes of table — no
// second index, no string header per key, no copy of the list per layer,
// no JSON scanner garbage. And the first lease and fold, where this run's
// keys start beside the resumed ones, copy none of them. The same holds
// for every sequential strategy whose history repeats the executed keys.
func TestResumeCostsTheSnapshot(t *testing.T) {
	for _, algo := range []string{Random, FitnessGuided, Genetic} {
		t.Run(algo, func(t *testing.T) { resumeCostsTheSnapshot(t, algo) })
	}
}

func resumeCostsTheSnapshot(t *testing.T, algo string) {
	const entries, tail = 20000, 100
	dir := t.TempDir()
	opts := keyHeavySession(dir, entries)
	opts.Algorithm = algo
	opts.SnapshotEvery, opts.StateStamp = entries-tail, "run-0"
	// No Finish: the last snapshot stays tail entries behind the journal.
	eng, cleanup, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunWith(eng.LocalExecutor())
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "snapshot.afexs"))
	if err != nil {
		t.Fatal(err)
	}

	opts.Iterations, opts.Resume, opts.StateStamp = entries+10, true, "run-1"
	var before, opened, leased runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	built := explore.KeysBuilt()
	eng, cleanup, err = NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	runtime.ReadMemStats(&opened)
	cands := eng.Lease(1)
	runtime.ReadMemStats(&leased)
	built = explore.KeysBuilt() - built

	snap := eng.Snapshot()
	if len(cands) != 1 || snap.Executed != entries || snap.Resume == nil || snap.Resume.Path != "tail" || snap.Resume.Entries != tail {
		t.Fatalf("resume leased %d candidates at %d executed, resumed %+v; want a tail resume of %d entries", len(cands), snap.Executed, snap.Resume, tail)
	}
	if built != entries {
		t.Errorf("resume indexed %d keys building key sets, want the %d executed keys once", built, entries)
	}
	alloc := leased.TotalAlloc - before.TotalAlloc
	t.Logf("open to first Lease allocated %d bytes, %.2fx the snapshot's %d", alloc, float64(alloc)/float64(fi.Size()), fi.Size())
	if alloc > 6*uint64(fi.Size()) {
		t.Errorf("open to first Lease allocated %d bytes, more than 6x the snapshot's %d", alloc, fi.Size())
	}
	// The first fold starts this run's keys beside the resumed ones — in
	// the engine's set and, the history diverging from the journal here,
	// in the explorer's — in small tables of their own, copying nothing.
	rec, out := eng.LocalExecutor().Execute(cands[0])
	eng.Fold(cands[0], rec, out)
	var folded runtime.MemStats
	runtime.ReadMemStats(&folded)
	if grew := folded.TotalAlloc - opened.TotalAlloc; grew > 8*entries {
		t.Errorf("the first lease and fold after the resume allocated %d bytes: the %d executed keys were copied", grew, entries)
	}
	eng.Finish()
}

// TestOldBuildDirectoryResumes: internal/store/testdata/oldbuild is a
// state directory the build before this snapshot shape wrote (`afex
// explore --target coreutils --journal-format binary --call-hi 200`,
// SIGKILLed at 512 entries, snapshot at 256). As it is, with its snapshot
// rewritten as the snapshot.json of older builds still, and rewritten in
// today's shape, it resumes to the same records, clusters and next
// candidate.
func TestOldBuildDirectoryResumes(t *testing.T) {
	const journaled, snapAt, total = 512, 256, 600
	target, err := Target("coreutils")
	if err != nil {
		t.Fatal(err)
	}
	resume := func(shape string, rewrite func(dir string)) *Result {
		t.Helper()
		dir := copyStateDir(t, filepath.Join("internal", "store", "testdata", "oldbuild"))
		rewrite(dir)
		stats, err := ReadStateStats(dir)
		if err != nil || stats.Entries != journaled || stats.SnapshotSeq != snapAt || stats.SnapshotFormat != shape || stats.ResumePath != "tail" {
			t.Fatalf("%s: directory reads as %+v (%v)", shape, stats, err)
		}
		res := resumedSession(t, Options{
			Target:     target,
			Space:      SpaceFor(target, 19, 1, 200),
			Algorithm:  FitnessGuided,
			Iterations: total,
			StateDir:   dir,
			Explore:    ExploreOptions{Seed: 1},
		})
		if res.Executed != total || res.Base() != snapAt || len(res.Records) != total-snapAt {
			t.Fatalf("%s: resumed to %d executed, %d records from base %d", shape, res.Executed, len(res.Records), res.Base())
		}
		if stats, err = ReadStateStats(dir); err != nil || stats.SnapshotFormat != store.SnapshotFramed || stats.SnapshotSeq != total {
			t.Fatalf("%s: the resume left a snapshot that reads as %+v (%v)", shape, stats, err)
		}
		return res
	}
	want := resume(store.SnapshotFramedJSON, func(string) {})
	for shape, rewrite := range map[string]func(string){
		store.SnapshotJSON:   func(dir string) { rewriteSnapshotLegacy(t, dir) },
		store.SnapshotFramed: func(dir string) { snapshotBytes(t, dir) },
	} {
		got := resume(shape, rewrite)
		for i := range want.Records {
			a, b := &want.Records[i], &got.Records[i]
			if a.ID != b.ID || a.Scenario != b.Scenario || a.Impact != b.Impact || a.Fitness != b.Fitness || a.Cluster != b.Cluster || !reflect.DeepEqual(a.Outcome, b.Outcome) {
				t.Fatalf("%s: record %d is %q (cluster %d), the old build's own snapshot resumes to %q (cluster %d)", shape, a.ID, b.Scenario, b.Cluster, a.Scenario, a.Cluster)
			}
		}
		if got.UniqueFailures != want.UniqueFailures || got.UniqueCrashes != want.UniqueCrashes {
			t.Fatalf("%s: %d/%d clusters, the old build's own snapshot resumes to %d/%d", shape, got.UniqueFailures, got.UniqueCrashes, want.UniqueFailures, want.UniqueCrashes)
		}
	}
}

// longResume runs a 1 200-scenario sequential session with feedback on —
// fitness is then impact × a similarity weight, not integral, which is
// what the sensitivity windows' running sums are sensitive to — and holds
// the same session killed at each of kills (a snapshot at every fold)
// and resumed to its journal and final snapshot: the length the resume
// workload of bench/ runs at, where the suites above stop at 150.
func longResume(t *testing.T, algo string, shards int, kills ...int) {
	const total = 1200
	target, err := Target("mysqld")
	if err != nil {
		t.Fatal(err)
	}
	session := func(killAt int) (string, []JournalEntry) {
		dir := t.TempDir()
		opts := Options{
			Target:        target,
			Space:         SpaceFor(target, 12, 0, 40),
			Algorithm:     algo,
			Shards:        shards,
			Iterations:    total,
			Feedback:      true,
			StateDir:      dir,
			JournalFormat: JournalBinary,
			Explore:       ExploreOptions{Seed: 9},
		}
		if killAt > 0 {
			killedSession(t, opts, killAt)
			resumedSession(t, opts)
		} else if _, err := Explore(opts); err != nil {
			t.Fatal(err)
		}
		journal, err := ReplayJournal(dir)
		if err != nil || len(journal) != total {
			t.Fatalf("journal of %d entries, want %d (%v)", len(journal), total, err)
		}
		return dir, journal
	}
	wantDir, want := session(0)
	wantSnap := snapshotBytes(t, wantDir)
	for _, killAt := range kills {
		t.Run(fmt.Sprintf("kill=%d", killAt), func(t *testing.T) {
			gotDir, got := session(killAt)
			for i := range want {
				got[i].Run = want[i].Run // which run folded it is the one thing a kill changes
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("killed at %d and resumed, the session diverges at record %d:\n got %+v\nwant %+v", killAt, i, got[i], want[i])
				}
			}
			if a := snapshotBytes(t, gotDir); !bytes.Equal(a, wantSnap) {
				t.Fatalf("resumed session's final snapshot (%d bytes) differs from the uninterrupted one's (%d)", len(a), len(wantSnap))
			}
		})
	}
}

// TestLongResumeEqualsUninterrupted: resume equality at the length
// bench/'s resume-tail runs, for every stateful strategy and a sharded
// one, killed at the first fold, mid-run (400 is where the fitness
// search used to come back with its window sums recomputed and diverge
// at record 968; 777 is past every window's wrap) and at the last fold.
func TestLongResumeEqualsUninterrupted(t *testing.T) {
	for _, c := range []struct {
		name, algo string
		shards     int
	}{
		{"random", Random, 0},
		{"fitness", FitnessGuided, 0},
		{"genetic", Genetic, 0},
		{"portfolio", Portfolio, 0},
		{"sharded-fitness", FitnessGuided, 3},
	} {
		t.Run(c.name, func(t *testing.T) { longResume(t, c.algo, c.shards, 1, 400, 777, 1199) })
	}
}
