package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"afex"
	"afex/internal/faultspace"
)

// readJournalEntries loads a state directory's journal.
func readJournalEntries(dir string) ([]afex.JournalEntry, error) {
	return afex.ReplayJournal(dir)
}

// The command functions are exercised directly; they print to stdout,
// which the test harness captures.

// noFailures strips the CI-gating sentinel: explorations that find
// failures return errFailuresFound (exit status 3), which for these
// tests means success.
func noFailures(err error) error {
	if errors.Is(err, errFailuresFound) {
		return nil
	}
	return err
}

func TestCmdExplore(t *testing.T) {
	if err := noFailures(cmdExplore([]string{
		"--target", "coreutils", "--iterations", "40", "--call-lo", "0", "--call-hi", "2",
	})); err != nil {
		t.Fatal(err)
	}
}

func TestCmdExploreWritesOutputTree(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	if err := noFailures(cmdExplore([]string{
		"--target", "httpd", "--iterations", "60", "--out", dir,
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "report.txt")); err != nil {
		t.Errorf("report.txt missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "results.tsv")); err != nil {
		t.Errorf("results.tsv missing: %v", err)
	}
}

func TestCmdExplorePairsAndErrno(t *testing.T) {
	if err := noFailures(cmdExplore([]string{
		"--target", "coreutils", "--iterations", "30", "--pairs", "--funcs", "4", "--call-hi", "2",
	})); err != nil {
		t.Fatal(err)
	}
	if err := noFailures(cmdExplore([]string{
		"--target", "coreutils", "--iterations", "30", "--errno-axis",
	})); err != nil {
		t.Fatal(err)
	}
}

func TestCmdExploreSharded(t *testing.T) {
	// A huge lazy pair space explored sharded: construction must be
	// instant and the session must complete its budget.
	if err := noFailures(cmdExplore([]string{
		"--target", "coreutils", "--iterations", "40", "--pairs",
		"--funcs", "4", "--call-hi", "100000", "--shards", "4", "--workers", "2",
	})); err != nil {
		t.Fatal(err)
	}
}

// TestCmdExploreFailuresExitStatus: a session that finds failures must
// surface the distinct CI-gating sentinel.
func TestCmdExploreFailuresExitStatus(t *testing.T) {
	err := cmdExplore([]string{"--target", "mysqld", "--iterations", "150"})
	if !errors.Is(err, errFailuresFound) {
		t.Fatalf("mysqld exploration should report errFailuresFound, got %v", err)
	}
}

// TestCmdExploreStateDirAndReplay: the full CLI persistence loop — two
// runs sharing a state dir spend their budgets on disjoint scenarios,
// a --resume run continues the session, and `afex replay <dir>`
// reproduces the recorded failures.
func TestCmdExploreStateDirAndReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	base := []string{"--target", "mysqld", "--call-hi", "6", "--state-dir", dir}
	if err := noFailures(cmdExplore(append(base, "--iterations", "60"))); err != nil {
		t.Fatal(err)
	}
	// Second run: budget is cumulative, search continues via --resume.
	if err := noFailures(cmdExplore(append(base, "--iterations", "120", "--resume"))); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournalEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 120 {
		t.Fatalf("cumulative session journaled %d scenarios, want 120", len(entries))
	}
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if seen[e.Key()] {
			t.Fatalf("scenario %s executed twice across runs", e.Key())
		}
		seen[e.Key()] = true
	}
	// Journal replay must reproduce the recorded failures (the program
	// models are deterministic).
	if err := cmdReplay([]string{dir}); err != nil {
		t.Fatalf("replay did not reproduce recorded failures: %v", err)
	}
	// Space mismatch must be refused, not silently merged.
	if err := cmdExplore(append(base, "--iterations", "10", "--call-hi", "99")); err == nil {
		t.Fatal("state dir accepted a run against a different space")
	}
	// --resume with no --state-dir is a usage error, not a silent
	// fresh session.
	if err := cmdExplore([]string{"--target", "mysqld", "--resume"}); err == nil {
		t.Fatal("--resume without --state-dir accepted")
	}
}

func TestCmdExploreUnknownTarget(t *testing.T) {
	if err := cmdExplore([]string{"--target", "nope"}); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// TestCmdExploreUnknownAlgorithm: explorer construction is error-
// returning all the way up — a typo'd algorithm name must fail with a
// message listing every valid choice instead of a silent nil explorer.
func TestCmdExploreUnknownAlgorithm(t *testing.T) {
	err := cmdExplore([]string{"--target", "coreutils", "--algorithm", "simulated-annealing"})
	if err == nil {
		t.Fatal("--algorithm simulated-annealing accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"simulated-annealing"`) || !strings.Contains(msg, "valid:") {
		t.Fatalf("error %q does not name the bad algorithm and the valid choices", msg)
	}
	for _, name := range afex.Algorithms() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list registered strategy %q", msg, name)
		}
	}
}

// TestCmdExplorePortfolio: the adaptive explorer runs end to end from
// the CLI, composed with sharding.
func TestCmdExplorePortfolio(t *testing.T) {
	if err := noFailures(cmdExplore([]string{
		"--target", "coreutils", "--algorithm", "portfolio", "--iterations", "60",
		"--shards", "2", "--call-lo", "0", "--call-hi", "2",
	})); err != nil {
		t.Fatal(err)
	}
}

func TestCmdReplay(t *testing.T) {
	if err := cmdReplay([]string{
		"--target", "mysqld",
		"--scenario", "testID 0 function read callNumber 3",
		"--trials", "2",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdReplay([]string{"--target", "mysqld"}); err == nil {
		t.Fatal("missing scenario accepted")
	}
	if err := cmdReplay([]string{
		"--target", "mysqld", "--scenario", "odd token count here x",
	}); err == nil {
		t.Fatal("malformed scenario accepted")
	}
}

// TestCmdReplayTrialsAtLeastOne: --trials below 1 is refused the same
// way in scenario mode and in journal mode.
func TestCmdReplayTrialsAtLeastOne(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if err := noFailures(cmdExplore([]string{"--target", "mysqld", "--call-hi", "6", "--state-dir", dir, "--iterations", "30"})); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"--target", "mysqld", "--scenario", "testID 0 function read callNumber 3", "--trials", "0"},
		{dir, "--trials", "0"},
	} {
		if err := cmdReplay(args); err == nil || !strings.Contains(err.Error(), "--trials must be at least 1") {
			t.Errorf("replay %q: %v, want --trials refused", args, err)
		}
	}
}

// profileFile runs `afex profile` with args and writes its output to a
// file in dir, returning the path.
func profileFile(t *testing.T, dir string, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := cmdProfile(args, &out); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "space.afex")
	if err := os.WriteFile(file, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return file
}

// TestCmdProfile: `afex profile`'s output is a space file. For every
// built-in target and shape, a session reading it with --space @file
// resolves to the union the same shape flags resolve to; on four of
// them a sequential session writes the same journal.
func TestCmdProfile(t *testing.T) {
	shapes := [][]string{
		nil,
		{"--call-lo", "0", "--call-hi", "2"},
		{"--errno-axis"},
		{"--pairs", "--funcs", "4", "--call-hi", "5"},
	}
	resolve := func(args ...string) *afex.Space {
		t.Helper()
		fs, spec := specFlags("explore")
		if err := parseSpec(fs, args, spec); err != nil {
			t.Fatal(err)
		}
		p, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		return p.Options.Space
	}
	for _, target := range afex.TargetNames() {
		for _, shape := range shapes {
			file := profileFile(t, t.TempDir(), slices.Concat([]string{"--target", target}, shape)...)
			fromFile, fromFlags := resolve("--target", target, "--space", "@"+file), resolve(slices.Concat([]string{"--target", target}, shape)...)
			if a, b := faultspace.Signature(fromFile), faultspace.Signature(fromFlags); a != b {
				t.Errorf("%s %q: profile's text is the space\n  %s\nthe flags explore\n  %s", target, shape, a, b)
			}
		}
	}

	for _, c := range []struct {
		target string
		shape  []string
	}{
		{"mysqld", nil},
		{"httpd", []string{"--errno-axis"}},
		{"coreutils", []string{"--pairs", "--funcs", "4", "--call-hi", "5"}},
		{"mongo-v2.0", nil},
	} {
		dir := t.TempDir()
		file := profileFile(t, dir, slices.Concat([]string{"--target", c.target}, c.shape)...)
		journal := func(name string, args ...string) []afex.JournalEntry {
			t.Helper()
			state := filepath.Join(dir, name)
			session := []string{"--target", c.target, "--iterations", "60", "--seed", "7", "--state-dir", state}
			if err := noFailures(cmdExplore(slices.Concat(session, args))); err != nil {
				t.Fatalf("%s %q: %v", c.target, args, err)
			}
			entries, err := readJournalEntries(state)
			if err != nil {
				t.Fatal(err)
			}
			for i := range entries {
				entries[i].DurationNS = 0
			}
			return entries
		}
		fromFile, fromFlags := journal("file", "--space", "@"+file), journal("flags", c.shape...)
		if len(fromFile) != 60 || !reflect.DeepEqual(fromFile, fromFlags) {
			t.Errorf("%s %q: --space @file journaled %d entries, the flags %d, or they differ", c.target, c.shape, len(fromFile), len(fromFlags))
		}
	}
}

// TestProfileDefaultsTheShape: a zero shape flag means its default, in
// profile as in a session, so profile never prints an empty space.
func TestProfileDefaultsTheShape(t *testing.T) {
	dir := t.TempDir()
	defaults, err := os.ReadFile(profileFile(t, dir, "--target", "httpd"))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := os.ReadFile(profileFile(t, dir, "--target", "httpd", "--funcs", "0", "--call-hi", "0"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, defaults) {
		t.Errorf("--funcs 0 --call-hi 0 prints\n%s\nwithout flags\n%s", zero, defaults)
	}
}

func TestCmdWorkerBadAddress(t *testing.T) {
	if err := cmdWorker([]string{"--target", "coreutils", "--addr", "127.0.0.1:1"}); err == nil {
		t.Fatal("dial to a closed port should fail")
	}
}
