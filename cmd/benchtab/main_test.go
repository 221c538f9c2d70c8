package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afex/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestBenchtabGolden pins the whole evaluation: every experiment is a
// function of its seed, so the default run's bytes are fixed, apart from
// the lines that carry a wall-clock figure (experiments.WallClock). A
// change that moves a table shows here as a diff; regenerate with
// `go test -update` once the change is meant.
func TestBenchtabGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--reps", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.Contains(line, experiments.WallClock) {
			got.WriteString(line)
		}
	}
	golden := filepath.Join("testdata", "benchtab.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("benchtab output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got.Bytes(), want)
	}
}

// TestBenchtabSelection: --only filters experiments; an unknown key
// selects nothing and errors instead of silently printing all.
func TestBenchtabSelection(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--only", "sharding", "--scale", "0.1", "--reps", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Sharding") || strings.Contains(out.String(), "Fig. 1") {
		t.Errorf("--only sharding printed the wrong experiments:\n%s", out.String())
	}
	if err := run([]string{"--only", "nope"}, &out); err == nil {
		t.Fatal("unknown --only key accepted")
	}
}

// TestBenchtabPortfolioRenders: the portfolio table is wired into the
// CLI and renders its ratio column at a tiny scale.
func TestBenchtabPortfolioRenders(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--only", "portfolio", "--scale", "0.1", "--reps", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "port/best") {
		t.Errorf("portfolio table missing:\n%s", out.String())
	}
}
