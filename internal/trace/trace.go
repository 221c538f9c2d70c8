// Package trace is the profiling substrate of the fault-space definition
// methodology (§7): the stand-in for ltrace and for LFI's callsite
// analyzer.
//
// The paper defines fault spaces by (1) running the target's default test
// suite under ltrace to see which libc functions it calls and how often,
// and (2) running LFI's analyzer over libc.so to get each function's
// possible error returns. Here, Profile reads the simulated suite's
// fault-free call counts, and the libc registry already carries the fault
// profiles; Describe assembles the two into a description in the Fig. 3
// language, the one text a session's space shorthands (Shape) stand for.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"afex/internal/dsl"
	"afex/internal/libc"
	"afex/internal/prog"
)

// SuiteProfile summarizes a fault-free profiling run of a target's whole
// test suite.
type SuiteProfile struct {
	// Target names the profiled program.
	Target string
	// Tests is the suite size.
	Tests int
	// TotalCalls counts calls per function across the whole suite.
	TotalCalls map[string]int
	// MaxPerTest records, per function, the maximum number of calls any
	// single test made — the useful upper bound for the callNumber axis.
	MaxPerTest map[string]int
	// PerTest holds per-test call counts (index = testID).
	PerTest []map[string]int
	// Coverage is the baseline suite coverage without injection.
	Coverage float64
	// FailedBaseline counts tests that fail even without injection
	// (should be zero for a healthy target).
	FailedBaseline int
}

// Profile reads every test's fault-free run from p's memo (running those
// not run yet), so the session that follows starts with the memo warm.
func Profile(p *prog.Program) *SuiteProfile {
	sp := &SuiteProfile{
		Target:     p.Name,
		Tests:      len(p.TestSuite),
		TotalCalls: make(map[string]int),
		MaxPerTest: make(map[string]int),
		PerTest:    make([]map[string]int, len(p.TestSuite)),
	}
	funcs := p.FunctionsUsed()
	covered := make(map[int]struct{})
	for t := range p.TestSuite {
		out, calls := p.FaultFree(t)
		if out.Failed {
			sp.FailedBaseline++
		}
		counts := make(map[string]int)
		for id, n := range calls {
			if n == 0 {
				continue
			}
			fn := funcs[id]
			counts[fn] = int(n)
			sp.TotalCalls[fn] += int(n)
			sp.MaxPerTest[fn] = max(sp.MaxPerTest[fn], int(n))
		}
		sp.PerTest[t] = counts
		for b := range out.Blocks {
			covered[b] = struct{}{}
		}
	}
	if p.NumBlocks > 0 {
		sp.Coverage = float64(len(covered)) / float64(p.NumBlocks)
	}
	return sp
}

// TopFunctions returns the n most-called functions, ordered by the
// canonical libc axis order (functionality classes, §2), not by count —
// the count only selects membership. If fewer than n functions were
// observed, all of them are returned.
func (sp *SuiteProfile) TopFunctions(n int) []string {
	names := make([]string, 0, len(sp.TotalCalls))
	for fn := range sp.TotalCalls {
		names = append(names, fn)
	}
	sort.Slice(names, func(i, j int) bool {
		if sp.TotalCalls[names[i]] != sp.TotalCalls[names[j]] {
			return sp.TotalCalls[names[i]] > sp.TotalCalls[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	// Re-order the selected subset by the canonical class-grouped order,
	// which is what gives the function axis its similarity structure.
	pos := make(map[string]int)
	for i, fn := range libc.Functions() {
		pos[fn] = i
	}
	sort.Slice(names, func(i, j int) bool { return pos[names[i]] < pos[names[j]] })
	return names
}

// Shape is the shorthand for a profiled fault space: the session fields
// (`--funcs`, `--call-lo`, `--call-hi`, `--pairs`, `--errno-axis`) that
// name one Fig. 3 text, SuiteProfile.Describe. The JSON names are the
// session spec's, which embeds it.
type Shape struct {
	// Funcs caps the function axis at the most-called functions.
	Funcs int `json:"funcs,omitempty"`
	// CallLo/CallHi bound the callNumber axis; CallLo 0 includes the
	// no-injection point, as the paper's coreutils space does.
	CallLo int `json:"callLo,omitempty"`
	CallHi int `json:"callHi,omitempty"`
	// Pairs makes the space a two-fault one (quadratic; keep Funcs and
	// CallHi small or shard it); ErrnoAxis a Fig. 4-style one with
	// per-function errno/retval axes. Pairs wins when both are set.
	Pairs     bool `json:"pairs,omitempty"`
	ErrnoAxis bool `json:"errnoAxis,omitempty"`
}

// DefaultShape is the flat evaluation space of §7: the 19 most-called
// functions × callNumber 1..10.
var DefaultShape = Shape{Funcs: 19, CallLo: 1, CallHi: 10}

// WithDefaults fills what s leaves open from DefaultShape: Funcs ≤ 0
// takes its function count, CallHi ≤ 0 its callNumber bounds.
func (s Shape) WithDefaults() Shape {
	if s.Funcs <= 0 {
		s.Funcs = DefaultShape.Funcs
	}
	if s.CallHi <= 0 {
		s.CallLo, s.CallHi = DefaultShape.CallLo, DefaultShape.CallHi
	}
	return s
}

// Describe renders the fault-space description (Fig. 3 language) of
// shape s for the profiled target. The function axis holds the s.Funcs
// most-called functions, and the shape picks one of three forms:
//
//   - flat: testID × function × callNumber, one subspace;
//   - ErrnoAxis (Fig. 4): one subspace per function, each carrying
//     exactly the error returns the function's fault profile allows (the
//     callsite analyzer's output) as errno and retval axes, so the
//     explorer can learn that a callsite recovers from one errno and
//     breaks on another;
//   - Pairs: testID × (function, callNumber) × (function2, callNumber2),
//     both call axes from 0, the no-injection point, so the pair space
//     subsumes every single-fault scenario. Two faults on one path are
//     what find retry-exhaustion bugs — recovery code that survives one
//     fault but not a second (§6's example scenario injects an EINTR
//     and an ENOMEM in one run). The space grows quadratically in
//     points, but numeric axes are lazy, so building it stays O(axes)
//     for any CallHi.
func (sp *SuiteProfile) Describe(s Shape) *dsl.Description {
	s = s.WithDefaults()
	funcs := sp.TopFunctions(s.Funcs)
	prefix := strings.ReplaceAll(sp.Target, "-", "_") + "_"
	testID := dsl.Parameter{Name: "testID", Lo: 0, Hi: sp.Tests - 1}
	calls := func(name string, lo int) dsl.Parameter { return dsl.Parameter{Name: name, Lo: lo, Hi: s.CallHi} }
	switch {
	case s.Pairs:
		return &dsl.Description{Spaces: []dsl.SpaceDesc{{Subtype: prefix + "pairs", Params: []dsl.Parameter{
			testID, {Name: "function", Set: funcs}, calls("callNumber", 0),
			{Name: "function2", Set: funcs}, calls("callNumber2", 0),
		}}}}
	case !s.ErrnoAxis:
		return &dsl.Description{Spaces: []dsl.SpaceDesc{{Subtype: prefix + "libcalls", Params: []dsl.Parameter{
			testID, {Name: "function", Set: funcs}, calls("callNumber", s.CallLo),
		}}}}
	}
	d := &dsl.Description{}
	for _, fn := range funcs {
		prof := libc.Lookup(fn)
		if prof == nil {
			continue
		}
		errnos := make([]string, 0, len(prof.Errors))
		retvals := map[string]bool{}
		for _, e := range prof.Errors {
			if e.Errno != "" {
				errnos = append(errnos, e.Errno)
			}
			retvals[fmt.Sprintf("%d", e.Retval)] = true
		}
		if len(errnos) == 0 {
			errnos = []string{"0"}
		}
		rvs := make([]string, 0, len(retvals))
		for rv := range retvals {
			rvs = append(rvs, rv)
		}
		sort.Strings(rvs)
		d.Spaces = append(d.Spaces, dsl.SpaceDesc{
			Subtype: prefix + strings.ReplaceAll(fn, "__", "x"),
			Params: []dsl.Parameter{
				testID,
				{Name: "function", Set: []string{fn}},
				{Name: "errno", Set: errnos},
				{Name: "retval", Set: rvs},
				calls("callNumber", s.CallLo),
			},
		})
	}
	return d
}

// FaultProfileReport renders the LFI-callsite-analyzer view for the
// given functions: each function's possible error returns and errnos,
// one "#" comment line each, so the report can follow a description in
// a file the parser reads.
func FaultProfileReport(funcs []string) string {
	var b strings.Builder
	for _, fn := range funcs {
		p := libc.Lookup(fn)
		if p == nil {
			fmt.Fprintf(&b, "# %-22s <not provided by libc>\n", fn)
			continue
		}
		parts := make([]string, len(p.Errors))
		for i, e := range p.Errors {
			parts[i] = fmt.Sprintf("ret=%d errno=%s", e.Retval, e.Errno)
		}
		fmt.Fprintf(&b, "# %-22s class=%-8s %s\n", fn, p.Class, strings.Join(parts, ", "))
	}
	return b.String()
}
