package afex

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"afex/internal/cluster"
	"afex/internal/core"
	"afex/internal/explore"
)

// Snapshot shape tests. snapshot.json lists each distinct stack once and
// the executed keys in fold order, as compact JSON; before that it listed
// every stack occurrence and sorted keys, indented. The file has no
// format version, so both shapes must resume to the same session, and
// the new one must stay a function of the seed.

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

// rewriteSnapshotLegacy rewrites dir's snapshot.json into the shape
// written before the memory deduplicated: stacks repeated per occurrence
// (adjacent, the list being sorted), every key list sorted, indented.
func rewriteSnapshotLegacy(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "snapshot.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st core.SessionState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Aggregates == nil || st.Explorer == nil || len(st.AllStacks.Stacks) == 0 {
		t.Fatalf("snapshot at seq %d is too empty to exercise the legacy shape", st.Seq)
	}
	sort.Strings(st.Aggregates.SeenKeys)
	for _, set := range []*cluster.SetState{st.AllStacks, st.FailClusters, st.CrashClusters} {
		var repeated [][]string
		for i, stack := range set.Stacks {
			for n := 0; n <= i%3; n++ {
				repeated = append(repeated, stack)
			}
		}
		set.Stacks = repeated
	}
	var sortKeys func(*explore.State)
	sortKeys = func(ex *explore.State) {
		if ex == nil {
			return
		}
		sort.Strings(ex.Seen)
		for i := range ex.Searches {
			sort.Strings(ex.Searches[i].History)
		}
		for _, sh := range ex.Shards {
			sortKeys(sh)
		}
		for i := range ex.Arms {
			sortKeys(ex.Arms[i].State)
		}
	}
	sortKeys(st.Explorer)
	if raw, err = json.MarshalIndent(&st, "", " "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacySnapshotShapeResumes: a state directory whose snapshot is in
// the old shape resumes to the record-for-record continuation the new
// shape gives.
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
				legacyDir := copyStateDir(t, dir)
				rewriteSnapshotLegacy(t, legacyDir)

				want := resumedSession(t, mkOpts(dir))
				got := resumedSession(t, mkOpts(legacyDir))
				if got.Executed != total || want.Executed != total {
					t.Fatalf("resumed sessions executed %d (legacy shape) and %d, want %d", got.Executed, want.Executed, total)
				}
				if got.Base() != want.Base() || len(got.Records) != len(want.Records) {
					t.Fatalf("legacy shape resumed from base %d with %d records, new shape from %d with %d",
						got.Base(), len(got.Records), want.Base(), len(want.Records))
				}
				for i := range want.Records {
					a, b := want.Records[i], got.Records[i]
					if a.Scenario != b.Scenario || a.Impact != b.Impact || a.Fitness != b.Fitness || a.Cluster != b.Cluster {
						t.Fatalf("record %d diverges under the legacy snapshot shape:\n got %q impact=%v fitness=%v cluster=%d\nwant %q impact=%v fitness=%v cluster=%d",
							a.ID, b.Scenario, b.Impact, b.Fitness, b.Cluster, a.Scenario, a.Impact, a.Fitness, a.Cluster)
					}
				}
				if got.UniqueFailures != want.UniqueFailures || got.UniqueCrashes != want.UniqueCrashes {
					t.Fatalf("legacy shape ends with %d/%d clusters, new shape with %d/%d",
						got.UniqueFailures, got.UniqueCrashes, want.UniqueFailures, want.UniqueCrashes)
				}
			})
		}
	}
}

var elapsedField = regexp.MustCompile(`"elapsed":\d+`)

// TestSnapshotBytesDeterministic: two same-seed sequential sessions write
// byte-identical snapshots apart from the wall clock — uninterrupted, and
// killed and resumed at the same point, where the keys the resumed engine
// starts from arrive in a map.
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
						raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
						if err != nil {
							t.Fatal(err)
						}
						if bytes.ContainsRune(raw, '\n') {
							t.Fatal("snapshot.json is not compact JSON")
						}
						out[i] = elapsedField.ReplaceAll(raw, []byte(`"elapsed":0`))
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
func TestSnapshotSharesListsWithLiveSession(t *testing.T) {
	const total, more = 400, 40
	for _, algo := range []string{FitnessGuided, Portfolio} {
		t.Run(algo, func(t *testing.T) {
			dir := t.TempDir()
			opts := resumeOptions(11, total, dir)
			opts.Algorithm = algo
			opts.Workers = 4
			opts.Batch = 4
			opts.SnapshotEvery = 2
			if _, err := Explore(opts); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
			if err != nil {
				t.Fatal(err)
			}
			var st core.SessionState
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			if st.Seq != total || len(st.Aggregates.SeenKeys) != total {
				t.Fatalf("final snapshot has seq %d and %d executed keys, want %d of each", st.Seq, len(st.Aggregates.SeenKeys), total)
			}
			distinct := make(map[string]bool, total)
			for _, k := range st.Aggregates.SeenKeys {
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
		})
	}
}
