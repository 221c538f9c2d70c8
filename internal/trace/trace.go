// Package trace is the profiling substrate of the fault-space definition
// methodology (§7): the stand-in for ltrace and for LFI's callsite
// analyzer.
//
// The paper defines fault spaces by (1) running the target's default test
// suite under ltrace to see which libc functions it calls and how often,
// and (2) running LFI's analyzer over libc.so to get each function's
// possible error returns. Here, Profile reads the simulated suite's
// fault-free call counts, and the libc registry already carries the fault
// profiles; BuildDescription assembles the two into a description in the
// Fig. 3 language, and BuildSpace into an explorable fault space.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"afex/internal/dsl"
	"afex/internal/faultspace"
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

// BuildDescription renders a fault-space description (Fig. 3 language)
// for the profiled target: testID × function × callNumber. nFuncs caps
// the function axis at the most-called functions; callLo/callHi bound the
// callNumber axis (callLo 0 includes the no-injection point, as the
// paper's coreutils space does).
func (sp *SuiteProfile) BuildDescription(nFuncs, callLo, callHi int) *dsl.Description {
	funcs := sp.TopFunctions(nFuncs)
	return &dsl.Description{Spaces: []dsl.SpaceDesc{{
		Subtype: strings.ReplaceAll(sp.Target, "-", "_") + "_libcalls",
		Params: []dsl.Parameter{
			{Name: "testID", Lo: 0, Hi: sp.Tests - 1, Kind: dsl.Point},
			{Name: "function", Set: funcs},
			{Name: "callNumber", Lo: callLo, Hi: callHi, Kind: dsl.Point},
		},
	}}}
}

// BuildSpace is BuildDescription followed by Build, returning the
// explorable union (always a single subspace for this methodology).
func (sp *SuiteProfile) BuildSpace(nFuncs, callLo, callHi int) *faultspace.Union {
	return sp.BuildDescription(nFuncs, callLo, callHi).Build()
}

// BuildPairSpace builds a two-fault space: testID × (function,
// callNumber) × (function2, callNumber2). Both callNumber axes start at
// 0, the no-injection point, so the pair space subsumes all single-fault
// scenarios. Multi-fault exploration is what finds retry-exhaustion bugs
// — recovery code that survives one fault but not a second one on the
// same path — which no single-fault scan can trigger (§6's example
// scenario injects an EINTR and an ENOMEM in one run).
//
// Pair spaces are quadratically larger than single-fault spaces in
// *points*, but the numeric axes are lazy, so construction cost and
// memory stay O(axes) for any callHi — billion-point pair spaces are
// fine to build and explore (shard them across workers for throughput).
func (sp *SuiteProfile) BuildPairSpace(nFuncs, callHi int) *faultspace.Union {
	funcs := sp.TopFunctions(nFuncs)
	return faultspace.NewUnion(faultspace.New(
		strings.ReplaceAll(sp.Target, "-", "_")+"_pairs",
		faultspace.IntAxis("testID", 0, sp.Tests-1),
		faultspace.SetAxis("function", funcs...),
		faultspace.IntAxis("callNumber", 0, callHi),
		faultspace.SetAxis("function2", funcs...),
		faultspace.IntAxis("callNumber2", 0, callHi),
	))
}

// BuildDetailedDescription builds a Fig. 4-style description with
// explicit errno and retval axes: one subspace per function, each
// carrying exactly the error returns the function's fault profile allows
// (the callsite analyzer's output). Unlike the flat evaluation space, a
// detailed space lets the explorer discover that the same callsite
// recovers from one errno and breaks on another.
func (sp *SuiteProfile) BuildDetailedDescription(nFuncs, callLo, callHi int) *dsl.Description {
	d := &dsl.Description{}
	for _, fn := range sp.TopFunctions(nFuncs) {
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
			Subtype: strings.ReplaceAll(sp.Target, "-", "_") + "_" + strings.ReplaceAll(fn, "__", "x"),
			Params: []dsl.Parameter{
				{Name: "testID", Lo: 0, Hi: sp.Tests - 1, Kind: dsl.Point},
				{Name: "function", Set: []string{fn}},
				{Name: "errno", Set: errnos},
				{Name: "retval", Set: rvs},
				{Name: "callNumber", Lo: callLo, Hi: callHi, Kind: dsl.Point},
			},
		})
	}
	return d
}

// BuildDetailedSpace is BuildDetailedDescription followed by Build.
func (sp *SuiteProfile) BuildDetailedSpace(nFuncs, callLo, callHi int) *faultspace.Union {
	return sp.BuildDetailedDescription(nFuncs, callLo, callHi).Build()
}

// FaultProfileReport renders the LFI-callsite-analyzer view for the
// given functions: each function's possible error returns and errnos.
func FaultProfileReport(funcs []string) string {
	var b strings.Builder
	for _, fn := range funcs {
		p := libc.Lookup(fn)
		if p == nil {
			fmt.Fprintf(&b, "%-22s <not provided by libc>\n", fn)
			continue
		}
		parts := make([]string, len(p.Errors))
		for i, e := range p.Errors {
			parts[i] = fmt.Sprintf("ret=%d errno=%s", e.Retval, e.Errno)
		}
		fmt.Fprintf(&b, "%-22s class=%-8s %s\n", fn, p.Class, strings.Join(parts, ", "))
	}
	return b.String()
}
