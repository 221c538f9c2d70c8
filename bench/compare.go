package main

// bench compare <a.json> <b.json> holds result set b (the change, or a
// second set of runs of the same code) to result set a (the parent)
// metric by metric and workload by workload, within the bounds
// BENCHMARK.json fixes. It is this repository's parent-vs-change gate.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func readResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// side is one result set's view of one metric on one workload: the
// value of every run, or — from a single run — its repetitions' range.
type side struct {
	values   []float64
	min, max float64
}

func (s side) median() float64 { return median(s.values) }

// spread is the run-to-run spread as a share of the median: the
// distance between the quartiles of four or more runs, else the range
// the repetitions of the runs covered.
func (s side) spread() float64 {
	m := s.median()
	if m == 0 {
		return 0
	}
	if len(s.values) >= 4 {
		q1, q3 := quartiles(s.values)
		return (q3 - q1) / m
	}
	return (s.max - s.min) / m
}

// gather indexes a result set by workload and metric. Traced and
// untraced runs share only the names of the gated per-layer figures,
// which both kinds take from untraced repetitions.
func gather(rs *resultSet) map[string]map[string]*side {
	out := map[string]map[string]*side{}
	for _, run := range rs.Runs {
		byMetric := out[run.Workload]
		if byMetric == nil {
			byMetric = map[string]*side{}
			out[run.Workload] = byMetric
		}
		for name, s := range run.Metrics {
			sd := byMetric[name]
			if sd == nil {
				sd = &side{min: s.Min, max: s.Max}
				byMetric[name] = sd
			}
			sd.values = append(sd.values, s.Value)
			sd.min, sd.max = min(sd.min, s.Min), max(sd.max, s.Max)
		}
	}
	return out
}

// verdict compares one metric on one workload. worse is by how much of
// a's median b is worse (negative: better).
func verdict(a, b side, better string, bound float64) (status string, worse float64) {
	am, bm := a.median(), b.median()
	switch {
	case am == 0 && bm == 0:
		return "ok", 0
	case am == 0:
		return "moved", 1
	}
	worse = (bm - am) / am
	if better == "higher" {
		worse = -worse
	}
	// A spread wider than the bound cannot resolve a move of the bound's
	// size — unless every run of b reads better than every run of a.
	if a.spread() > bound || b.spread() > bound {
		allBetter := len(a.values) > 0 && len(b.values) > 0
		for _, x := range a.values {
			for _, y := range b.values {
				if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", worse
		}
	}
	if worse > bound {
		return "WORSE", worse
	}
	return "ok", worse
}

// compareMain is `bench compare`; it returns the exit code.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <a.json> <b.json>")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		return fail(err)
	}
	a, err := readResultSet(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := readResultSet(args[1])
	if err != nil {
		return fail(err)
	}
	// Gated metrics: every end-to-end metric at its BENCHMARK.json
	// bound, and the per-layer metrics the catalogue gives one.
	type gate struct {
		name, better string
		bound        float64
	}
	var gates []gate
	for _, m := range spec.EndToEnd {
		if m.Bound == nil {
			return fail(fmt.Errorf("BENCHMARK.json: end-to-end metric %s has no bound", m.Name))
		}
		gates = append(gates, gate{m.Name, m.Better, *m.Bound})
	}
	for _, m := range perLayer {
		if m.Bound > 0 {
			gates = append(gates, gate{m.Name, m.Better, m.Bound})
		}
	}
	for _, side := range []struct {
		name string
		rs   *resultSet
	}{{args[0], a}, {args[1], b}} {
		var speeds []float64
		for _, run := range side.rs.Runs {
			speeds = append(speeds, run.MachineSpeed)
		}
		fmt.Printf("%s: commit %s, spin %.0f Mops/s, median machine speed %.2f (times are at %.1f)\n",
			side.name, side.rs.Commit, side.rs.SpinMops, median(speeds), referenceSpeed)
	}
	ga, gb := gather(a), gather(b)
	names := make([]string, 0, len(ga))
	for w := range ga {
		names = append(names, w)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tb vs a (base a)\tbound\tspread a/b\tverdict")
	var moved []string
	for _, w := range names {
		for _, g := range gates {
			sa, sb := ga[w][g.name], gb[w][g.name]
			if sa == nil || sb == nil {
				continue // not measured on both sides (traced or untraced runs missing)
			}
			if sa.median() == 0 && sb.median() == 0 {
				continue // a layer this workload does not exercise
			}
			status, worse := verdict(*sa, *sb, g.better, g.bound)
			sign := "worse"
			if worse < 0 {
				sign, worse = "better", -worse
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.1f%% %s\t%.0f%%\t%.1f%% / %.1f%%\t%s\n",
				w, g.name, sa.median(), sb.median(), 100*worse, sign, 100*g.bound, 100*sa.spread(), 100*sb.spread(), status)
			if status != "ok" {
				moved = append(moved, fmt.Sprintf("%s %s: %s", w, g.name, status))
			}
		}
	}
	tw.Flush()
	if len(moved) > 0 {
		fmt.Println("not within bounds:")
		for _, m := range moved {
			fmt.Println("  " + m)
		}
		return 1
	}
	fmt.Println("every gated metric within its bound")
	return 0
}
