package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"afex"
	"afex/internal/store"
)

// statsStateDir runs a deterministic model session (fixed seed, model
// backend: zero durations) into a fresh state dir, so `afex stats`
// output is a pure function of the session parameters and the golden
// bytes are pinnable.
func statsStateDir(t *testing.T, format string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "state")
	err := cmdExplore([]string{
		"--target", "mysqld",
		"--iterations", "40",
		"--seed", "5",
		"--state-dir", dir,
		"--journal-format", format,
	})
	if err := noFailures(err); err != nil {
		t.Fatal(err)
	}
	// The snapshot's wall clock is the one thing in the directory that
	// varies from run to run; written again with it pinned, the
	// snapshot's size is a function of the session parameters like the
	// rest.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.LoadSnapshot()
	if err != nil || snap == nil {
		t.Fatalf("session left snapshot %v, %v", snap, err)
	}
	snap.Elapsed = 0
	st.SnapshotSession(snap)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCmdStatsGolden pins the human-readable and --json stats output
// for both journal formats. The binary golden is of testdata/compacted,
// the same session's directory as an earlier build's compaction left it,
// so it covers the archive/live split and the segment count; the session
// run here must write exactly the journal that directory archived and
// the snapshot it holds.
func TestCmdStatsGolden(t *testing.T) {
	for _, format := range []string{afex.JournalJSONL, afex.JournalBinary} {
		t.Run(format, func(t *testing.T) {
			dir := statsStateDir(t, format)
			if format == afex.JournalBinary {
				fresh := dir
				dir = t.TempDir()
				for _, name := range []string{"meta.json", "archive.afexj", "journal.afexj", "snapshot.afexs"} {
					raw, err := os.ReadFile(filepath.Join("testdata", "compacted", name))
					if err == nil {
						err = os.WriteFile(filepath.Join(dir, name), raw, 0o644)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				for written, kept := range map[string]string{"journal.afexj": "archive.afexj", "snapshot.afexs": "snapshot.afexs"} {
					a, errA := os.ReadFile(filepath.Join(fresh, written))
					b, errB := os.ReadFile(filepath.Join(dir, kept))
					if errA != nil || errB != nil || !bytes.Equal(a, b) {
						t.Fatalf("the session's %s is not the compacted directory's %s (%v, %v)", written, kept, errA, errB)
					}
				}
			}

			var out bytes.Buffer
			if err := cmdStats([]string{dir}, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("stats_%s.golden", format), out.Bytes())

			out.Reset()
			if err := cmdStats([]string{dir, "--json"}, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("stats_%s_json.golden", format), out.Bytes())

			// The JSON must decode back to the reader's view of the
			// directory — machine readability is the point of the flag.
			var got afex.StateStats
			if err := json.Unmarshal(out.Bytes(), &got); err != nil {
				t.Fatalf("--json output is not valid JSON: %v", err)
			}
			want, err := afex.ReadStateStats(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got != *want {
				t.Errorf("decoded stats = %+v, want %+v", got, *want)
			}
		})
	}
}

// TestCmdStatsArgs: the directory is required, flags may precede or
// follow it, and a missing directory reports the reader's error.
func TestCmdStatsArgs(t *testing.T) {
	var out bytes.Buffer
	if err := cmdStats(nil, &out); err == nil {
		t.Error("stats accepted no arguments")
	}
	if err := cmdStats([]string{"--json"}, &out); err == nil {
		t.Error("stats accepted --json without a directory")
	}
	if err := cmdStats([]string{filepath.Join(t.TempDir(), "nope")}, &out); err == nil {
		t.Error("stats accepted a directory with no session state")
	}
	dir := statsStateDir(t, afex.JournalJSONL)
	for _, args := range [][]string{{dir, "--json"}, {"--json", dir}} {
		out.Reset()
		if err := cmdStats(args, &out); err != nil {
			t.Errorf("stats %v: %v", args, err)
		} else if !json.Valid(out.Bytes()) {
			t.Errorf("stats %v emitted invalid JSON", args)
		}
	}
}
