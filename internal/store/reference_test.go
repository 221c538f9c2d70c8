package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"afex/internal/cluster"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/targets"
	"afex/internal/trace"
)

// The snapshot writer this one replaced, kept as the oracle: what decodes
// from the new file must be what decodes from the old file of the same
// state, and the files the old writer left must keep resuming.

// referenceAppendSnapshot writes what the snapshot writer wrote before
// the cluster sets left the JSON: the state frame holds the sets, every
// key list is written in full.
func referenceAppendSnapshot(dst []byte, st *core.SessionState) ([]byte, error) {
	lists := keyLists(st)
	keys := make([][]string, len(lists))
	held := make([]*explore.Keys, len(lists))
	for i, p := range lists {
		keys[i], held[i], *p = (*p).Strings(), *p, nil
	}
	raw, err := json.Marshal(st)
	for i, p := range lists {
		*p = held[i]
	}
	if err != nil {
		return nil, err
	}
	dst = appendFrame(append(dst, snapMagic...), frameState, append(binary.AppendUvarint(nil, uint64(st.Seq)), raw...))
	for _, list := range keys {
		var enc segEnc
		enc.strs(list)
		dst = appendFrame(dst, frameKeys, enc.buf)
	}
	return dst, nil
}

// appendFrame renders one complete frame (kind, length, payload, crc)
// into dst by hand: the layout the frame writer streams, for tests that
// build segments and snapshot files byte by byte.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	at := len(dst)
	dst = append(binary.AppendUvarint(append(dst, kind), uint64(len(payload))), payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Update(crc32.ChecksumIEEE(dst[at:at+1]), crc32.IEEETable, payload))
}

// referenceSetsFrame is the sets frame as the encoder before the store
// kept its interned stacks wrote it: frames and stacks interned afresh
// through string-keyed maps, ids handed out in walk order.
func referenceSetsFrame(sets [3]*cluster.SetState) []byte {
	frames, stackIDs := map[string]uint64{}, map[string]uint64{}
	var frameTab, stackTab, out segEnc
	stack := func(stack []string) uint64 {
		var ids []byte
		for _, f := range stack {
			id, ok := frames[f]
			if !ok {
				id = uint64(len(frames))
				frames[f] = id
				frameTab.str(f)
			}
			ids = binary.AppendUvarint(ids, id)
		}
		id, ok := stackIDs[string(ids)]
		if !ok {
			id = uint64(len(stackIDs))
			stackIDs[string(ids)] = id
			stackTab.uint(uint64(len(stack)))
			stackTab.buf = append(stackTab.buf, ids...)
		}
		return id
	}
	for _, st := range sets {
		out.bool(st != nil)
		if st == nil {
			continue
		}
		out.int(st.Threshold)
		out.uint(uint64(len(st.Clusters)))
		for _, c := range st.Clusters {
			out.uint(stack(c.Representative))
			out.uint(uint64(len(c.Members)))
			prev := 0
			for _, m := range c.Members {
				out.int(m - prev)
				prev = m
			}
		}
		out.uint(uint64(len(st.Stacks)))
		for _, s := range st.Stacks {
			out.uint(stack(s))
		}
	}
	payload := binary.AppendUvarint(nil, uint64(len(frames)))
	payload = append(binary.AppendUvarint(append(payload, frameTab.buf...), uint64(len(stackIDs))), stackTab.buf...)
	return appendFrame(nil, frameSets, append(payload, out.buf...))
}

// snapshotBytes is the file the snapshot writer streams for st at pos.
func snapshotBytes(st *core.SessionState, pos int64) ([]byte, error) {
	var buf bytes.Buffer
	var w snapWriter
	err := w.write(&buf, st, pos)
	return buf.Bytes(), err
}

// setsFrameBytes is the sets frame the snapshot writer streams for sets.
func setsFrameBytes(sets [3]*cluster.SetState) []byte {
	var buf bytes.Buffer
	w := snapWriter{frameWriter: frameWriter{bw: bufio.NewWriter(&buf)}}
	w.writeSets(sets)
	w.bw.Flush()
	return buf.Bytes()
}

// lastState is a core.Store that keeps the latest snapshot it is handed.
type lastState struct {
	mu sync.Mutex
	st *core.SessionState
}

func (l *lastState) JournalRecord(explore.Candidate, core.Record) {}
func (l *lastState) SnapshotSession(st *core.SessionState) {
	l.mu.Lock()
	l.st = st
	l.mu.Unlock()
}

// sessionConfig is a feedback session on the mysqld model, which fails
// and crashes enough to fill all three cluster sets.
func sessionConfig(algo string, shards, workers, iterations int) core.Config {
	target := targets.Mysqld()
	return core.Config{
		Target:     target,
		Space:      trace.Profile(target).Describe(trace.Shape{Funcs: 10, CallLo: 0, CallHi: 5}).Build(),
		Algorithm:  algo,
		Shards:     shards,
		Workers:    workers,
		Batch:      4,
		Iterations: iterations,
		Feedback:   true,
		Explore:    explore.Config{Seed: 7},
	}
}

// exportedState runs a session to its end and returns its final snapshot.
func exportedState(t *testing.T, cfg core.Config) *core.SessionState {
	t.Helper()
	var last lastState
	cfg.Store = &last
	eng, err := core.NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunWith(eng.LocalExecutor())
	eng.Finish()
	if last.st == nil || last.st.Seq != cfg.Iterations {
		t.Fatalf("session left snapshot %+v, want one at seq %d", last.st, cfg.Iterations)
	}
	return last.st
}

func decodeBytes(t *testing.T, raw []byte) (*core.SessionState, snapFile) {
	t.Helper()
	file := snapFile{size: int64(len(raw))}
	st, err := decodeSnapshot(bytes.NewReader(raw), &file, snapFull)
	if err != nil {
		t.Fatalf("snapshot does not decode: %v", err)
	}
	return st, file
}

// TestSnapshotCodecMatchesReference: over the final states of sequential
// and 4-worker sessions of every stateful strategy, the new file decodes
// to what the old file of the same state decodes to — deep-equal, and
// equal as JSON, which prints a float64 by its bits — at well under the
// old size. A list that repeats an earlier one is a reference — the
// decoded list itself, not a copy of it — one that does not is in full,
// and a key set built over any decoded list and added to changes no list.
func TestSnapshotCodecMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		algo   string
		shards int
		// refs: a sequential session's explorer commits keys in fold
		// order, so its history (the portfolio's shared set) repeats the
		// executed keys; a shard or an arm holds a part of them.
		refs int
	}{{"random", 0, 1}, {"fitness", 0, 1}, {"genetic", 0, 1}, {"portfolio", 0, 1}, {"fitness", 3, 0}} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/shards=%d/workers=%d", tc.algo, tc.shards, workers)
			t.Run(name, func(t *testing.T) {
				st := exportedState(t, sessionConfig(tc.algo, tc.shards, workers, 300))
				if len(st.AllStacks.Stacks) == 0 || len(st.FailClusters.Clusters) == 0 || len(st.CrashClusters.Clusters) == 0 {
					t.Fatalf("session exported %d stacks, %d failure and %d crash clusters: too empty to test the sets frame",
						len(st.AllStacks.Stacks), len(st.FailClusters.Clusters), len(st.CrashClusters.Clusters))
				}
				before, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				now, err := snapshotBytes(st, 12345)
				if err != nil {
					t.Fatal(err)
				}
				old, err := referenceAppendSnapshot(nil, st)
				if err != nil {
					t.Fatal(err)
				}
				if after, _ := json.Marshal(st); !bytes.Equal(before, after) {
					t.Fatal("encoding a state changed it")
				}
				got, file := decodeBytes(t, now)
				want, oldFile := decodeBytes(t, old)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("the new file decodes to a different state:\n got %+v\nwant %+v", got, want)
				}
				a, _ := json.Marshal(got)
				b, _ := json.Marshal(want)
				if !bytes.Equal(a, b) || !bytes.Equal(a, before) {
					t.Fatalf("the decoded states differ as JSON:\n new %s\n old %s\n was %s", a, b, before)
				}
				if file.format != SnapshotFramed || oldFile.format != SnapshotFramedJSON || oldFile.refs != 0 || oldFile.sets != 0 {
					t.Fatalf("shapes read as %q and %q (%d references, %d bytes of sets in the old one)", file.format, oldFile.format, oldFile.refs, oldFile.sets)
				}
				if file.pos != 12345 || oldFile.pos != 0 {
					t.Fatalf("journal positions read as %d and %d, want 12345 and none", file.pos, oldFile.pos)
				}
				if file.state+file.sets+file.keys != int64(len(now)) || file.sets == 0 || !reflect.DeepEqual(file.keyCounts, oldFile.keyCounts) {
					t.Fatalf("%d bytes split as %d + %d + %d, lists of %v keys (old file: %v)", len(now), file.state, file.sets, file.keys, file.keyCounts, oldFile.keyCounts)
				}
				if workers == 1 && file.refs != tc.refs {
					t.Errorf("sequential session: %d of %d lists written as references, want %d", file.refs, len(file.keyCounts), tc.refs)
				}
				if len(now) > len(old)*3/4 {
					t.Errorf("new file is %d bytes, the old one %d", len(now), len(old))
				}
				t.Logf("%d -> %d bytes (state %d, sets %d, keys %d), %d of %d lists references", len(old), len(now), file.state, file.sets, file.keys, file.refs, len(file.keyCounts))

				// A list in another order is not the same list.
				lists := keyLists(st)
				if at := slices.IndexFunc(lists[1:], func(l **explore.Keys) bool { return (*l).Equal(*lists[0]) }) + 1; workers == 1 && at > 0 {
					moved := (*lists[at]).Strings()
					moved[0], moved[len(moved)-1] = moved[len(moved)-1], moved[0]
					*lists[at] = explore.NewKeySet(moved).Keys()
					full, err := snapshotBytes(st, 0)
					if err != nil {
						t.Fatal(err)
					}
					if back, f := decodeBytes(t, full); f.refs != tc.refs-1 || !reflect.DeepEqual((*keyLists(back)[at]).Strings(), moved) {
						t.Errorf("a reordered list came back as %d references, list %v", f.refs, (*keyLists(back)[at]).Strings())
					}
				}

				// A reference is the list it refers to; adding to a set
				// built over any decoded list shows in no list.
				decoded := keyLists(got)
				for i, l := range decoded {
					if k := file.keyCounts[i]; (*l).Len() != k {
						t.Fatalf("decoded list %d holds %d keys, its frame %d", i, (*l).Len(), k)
					}
					if j := slices.IndexFunc(decoded[:i], func(o **explore.Keys) bool { return (*o).Len() > 0 && (*o).Equal(*l) }); j >= 0 && *decoded[j] != *l {
						t.Fatalf("decoded list %d repeats list %d but is a copy of it", i, j)
					}
				}
				for i, l := range decoded {
					mark := fmt.Sprintf("appended to list %d", i)
					if set := (*l).Set(); !set.Add(mark) || set.Len() != (*l).Len()+1 {
						t.Fatalf("a set over decoded list %d does not take a new key", i)
					}
					for j, other := range decoded {
						if n := (*other).Len(); n != file.keyCounts[j] || (n > 0 && (*other).At(n-1) == mark) {
							t.Fatalf("adding to a set over decoded list %d changed list %d", i, j)
						}
					}
				}
			})
		}
	}
}

// TestSetsFrameHoldsEachStackOnce: the failure and crash clusters'
// memories and every representative are stacks the similarity memory
// holds, so the frame's stack table is as long as that memory and its
// frame table as the distinct frames; and the bytes are a function of the
// state, not of map order.
func TestSetsFrameHoldsEachStackOnce(t *testing.T) {
	st := exportedState(t, sessionConfig("fitness", 0, 1, 400))
	sets := [3]*cluster.SetState{st.AllStacks, st.FailClusters, st.CrashClusters}
	raw := setsFrameBytes(sets)
	fr := newFrameReader(bytes.NewReader(raw), 0, int64(len(raw)))
	kind, payload, err := fr.next()
	if err != nil || kind != frameSets {
		t.Fatalf("sets frame reads back as kind %d: %v", kind, err)
	}
	d := segDec{buf: payload}
	frames := map[string]bool{}
	for i, n := 0, d.count(); i < n; i++ {
		frames[d.view()] = true
	}
	stacks := d.count()
	distinctFrames := map[string]bool{}
	for _, s := range st.AllStacks.Stacks {
		for _, f := range s {
			distinctFrames[f] = true
		}
	}
	if d.err != nil || stacks != len(st.AllStacks.Stacks) || len(frames) != len(distinctFrames) {
		t.Fatalf("frame holds %d stacks over %d frames (%v), the similarity memory %d over %d",
			stacks, len(frames), d.err, len(st.AllStacks.Stacks), len(distinctFrames))
	}
	for i := 0; i < 5; i++ {
		if again := setsFrameBytes(sets); !bytes.Equal(raw, again) {
			t.Fatal("the same sets encoded to different bytes")
		}
	}
}

// TestOldBuildFixture: testdata/oldbuild is a state directory the build
// before this snapshot shape left behind (`afex explore --target
// coreutils --journal-format binary --call-hi 200`, SIGKILLed): 512
// journal entries, a framed-json snapshot at 256. It reads as what it is,
// recovers by the tail, and the first snapshot written over it is in the
// new shape and holds the same state.
func TestOldBuildFixture(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{metaName, binJournalName, "journal.idx", snapshotName} {
		raw, err := os.ReadFile(filepath.Join("testdata", "oldbuild", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := ReadStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 512 || stats.SnapshotSeq != 256 || stats.SnapshotFormat != SnapshotFramedJSON || stats.ResumePath != "tail" ||
		stats.SnapshotKeys != 256 || stats.SnapshotKeyLists != 3 || stats.SnapshotKeyRefs != 0 || stats.SnapshotSetsBytes != 0 ||
		stats.SnapshotStateBytes+stats.SnapshotKeysBytes != stats.SnapshotBytes {
		t.Fatalf("old-build directory reads as %+v", stats)
	}
	s, err := OpenOptions(dir, Options{TailResume: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Recover()
	if err != nil || r == nil || r.Info.Path != "tail" || r.Base != 256 || len(r.Records) != 256 || r.Seen.Len() != 512 {
		t.Fatalf("old-build directory recovers as %+v: %v", r, err)
	}
	old, err := s.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.SnapshotSession(old)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if stats, err = ReadStats(dir); err != nil || stats.SnapshotFormat != SnapshotFramed || stats.SnapshotKeyRefs != 1 || stats.SnapshotKeys != 256 {
		t.Fatalf("rewritten snapshot reads as %+v: %v", stats, err)
	}
	s, err = OpenOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if now, err := s.LoadSnapshot(); err != nil || !reflect.DeepEqual(now, old) {
		t.Fatalf("rewritten snapshot holds a different state (%v):\n got %+v\nwant %+v", err, now, old)
	}
}
