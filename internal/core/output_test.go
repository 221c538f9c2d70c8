package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWriteDir(t *testing.T) {
	res, err := Run(Config{Target: sessionTarget(), Space: sessionSpace(), Algorithm: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil || !strings.Contains(string(report), "AFEX session report") {
		t.Errorf("report.txt: %v", err)
	}
	tsv, err := os.ReadFile(filepath.Join(dir, "results.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(tsv)), "\n")
	if len(lines) != 1+res.Executed {
		t.Errorf("results.tsv has %d lines, want header + %d", len(lines), res.Executed)
	}
	clusters, err := os.ReadFile(filepath.Join(dir, "clusters.txt"))
	if err != nil || !strings.Contains(string(clusters), "cluster 0") {
		t.Errorf("clusters.txt: %v", err)
	}
	repros, err := filepath.Glob(filepath.Join(dir, "repro", "*.sh"))
	if err != nil || len(repros) != res.UniqueFailures {
		t.Errorf("repro scripts = %d, want %d", len(repros), res.UniqueFailures)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "tests", "*", "log.txt"))
	if err != nil || len(logs) != res.Failed {
		t.Errorf("test logs = %d, want %d", len(logs), res.Failed)
	}
	for _, lg := range logs {
		body, _ := os.ReadFile(lg)
		if !strings.Contains(string(body), "scenario:") {
			t.Errorf("log %s malformed", lg)
		}
	}
}

func TestTimeBudgetStopsSession(t *testing.T) {
	// A tiny wall-clock budget stops the session long before the huge
	// iteration budget does.
	res, err := Run(Config{
		Target:     sessionTarget(),
		Space:      sessionSpace(),
		Algorithm:  "exhaustive",
		TimeBudget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed >= 16 {
		t.Errorf("time budget ignored: executed %d", res.Executed)
	}
	// The deadline is enforced at lease time as well as at fold time, so
	// a budget that elapses before the first lease executes nothing —
	// zero is the correct outcome for a nanosecond budget.
}
