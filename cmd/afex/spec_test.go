package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"afex/internal/controlplane"
	"afex/internal/trace"
)

// TestSessionFlagTable: explore, serve and submit take the same session
// flags from one table; they differ in the defaults the table starts
// from. Each row binds a command's flag set from argv and holds the
// resulting spec to a literal.
func TestSessionFlagTable(t *testing.T) {
	spaceFile := filepath.Join(t.TempDir(), "space.afex")
	if err := os.WriteFile(spaceFile, []byte(crashySpace), 0o644); err != nil {
		t.Fatal(err)
	}
	type spec = controlplane.SessionSpec
	everything := []string{
		"--target", "cmd:./crashy {test}", "--space", "@" + spaceFile,
		"--funcs", "4", "--call-lo", "0", "--call-hi", "7", "--pairs", "--errno-axis",
		"--algorithm", "genetic", "--iterations", "99", "--seed", "-3", "--feedback",
		"--workers", "8", "--shards", "4",
		"--test-args", "row 0", "--test-args", "row 1", "--timeout", "1500ms", "--procs", "2",
		"--time-budget", "1h", "--state-dir", "/tmp/hunt", "--journal-format", "binary", "--resume",
		"--serve", ":7171",
		"--peers", "3", "--peer", "2",
	}
	all := spec{
		Target: "cmd:./crashy {test}", Space: crashySpace,
		Shape:     trace.Shape{Funcs: 4, CallLo: 0, CallHi: 7, Pairs: true, ErrnoAxis: true},
		Algorithm: "genetic", Iterations: 99, Seed: -3, Feedback: true,
		Workers: 8, Shards: 4,
		TestArgs: []string{"row 0", "row 1"}, Timeout: "1500ms", Procs: 2,
		TimeBudget: "1h", StateDir: "/tmp/hunt", JournalFormat: "binary", Resume: true,
		Serve: ":7171",
		Peers: 3, Peer: 2,
	}
	for _, c := range []struct {
		cmd  string
		argv []string
		want spec
	}{
		{"explore", nil, spec{Target: "coreutils", Algorithm: "fitness", Iterations: 250, Seed: 1, Workers: 1, Shape: trace.Shape{Funcs: 19, CallLo: 1, CallHi: 10}}},
		{"serve", nil, spec{Target: "coreutils", Algorithm: "fitness", Iterations: 500, Seed: 1, Shape: trace.Shape{Funcs: 19, CallLo: 1, CallHi: 10}, Serve: ":7070"}},
		{"submit", nil, spec{Target: "coreutils", Seed: 1}},
		{"explore", everything, all},
		{"serve", everything, all},
		{"submit", everything, all},
		{"explore", []string{"--algorithm", "random"}, spec{Target: "coreutils", Algorithm: "random", Iterations: 250, Seed: 1, Workers: 1, Shape: trace.Shape{Funcs: 19, CallLo: 1, CallHi: 10}}},
		{"serve", []string{"--addr", "127.0.0.1:0", "--target", "mysqld"}, spec{Target: "mysqld", Algorithm: "fitness", Iterations: 500, Seed: 1, Shape: trace.Shape{Funcs: 19, CallLo: 1, CallHi: 10}, Serve: "127.0.0.1:0"}},
	} {
		fs, got := specFlags(c.cmd)
		if err := parseSpec(fs, c.argv, got); err != nil {
			t.Errorf("%s %q: %v", c.cmd, c.argv, err)
		} else if !reflect.DeepEqual(*got, c.want) {
			t.Errorf("%s %q binds\n     %+v\nwant %+v", c.cmd, c.argv, *got, c.want)
		}
	}
	// The defaults are per command, not shared state: binding one
	// command's flags leaves the next call's untouched.
	if _, again := specFlags("explore"); again.Algorithm != "fitness" || again.TestArgs != nil {
		t.Errorf("a second explore flag set starts from %+v", *again)
	}
}
