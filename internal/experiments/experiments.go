// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) against the synthetic targets. Each experiment is a
// function returning a typed result with a String() rendering; cmd/benchtab
// prints them all and bench_test.go wraps each in a testing.B benchmark.
//
// Absolute numbers differ from the paper (the substrate is a simulator,
// not the authors' testbed); the experiments preserve the paper's shape:
// who wins, by roughly what factor, and where the crossovers fall.
// EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"strings"

	"afex/internal/core"
	"afex/internal/dsl"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/libc"
	"afex/internal/prog"
	"afex/internal/targets"
	"afex/internal/trace"
)

// Opts tunes experiment execution without changing its meaning.
type Opts struct {
	// Seed is the base RNG seed; rep r uses Seed + 1000*r.
	Seed int64
	// Reps averages stochastic experiments over this many repetitions.
	// Default 3.
	Reps int
	// Scale multiplies iteration budgets (0 < Scale ≤ 1 shrinks runs for
	// quick checks). Default 1.
	Scale float64
}

func (o Opts) withDefaults() Opts {
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Opts) iters(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// spaceCache avoids re-profiling targets across experiments.
var spaceCache = map[string]*faultspace.Union{}

// profileCache caches suite profiles per target.
var profileCache = map[string]*trace.SuiteProfile{}

// profileFor returns (and caches) the target's suite profile.
func profileFor(p *prog.Program) *trace.SuiteProfile {
	if sp, ok := profileCache[p.Name]; ok {
		return sp
	}
	sp := trace.Profile(p)
	profileCache[p.Name] = sp
	return sp
}

// executePoint runs the single fault at point pt of the space against the
// target, bypassing any explorer, and returns its scenario and outcome.
func executePoint(p *prog.Program, space *faultspace.Union, pt faultspace.Point) (string, prog.Outcome) {
	names := dsl.AxisNames(space, pt.Sub)
	vals := make([]string, len(names))
	sc := dsl.Render(space, names, pt, vals)
	ipt, plan, err := inject.FormOf(names).Convert(vals)
	if err != nil {
		return sc, prog.Outcome{}
	}
	return sc, prog.Run(p, ipt.TestID, plan)
}

// spaceFor returns the target's fault space per the §7 methodology.
func spaceFor(p *prog.Program, nFuncs, callLo, callHi int) *faultspace.Union {
	key := fmt.Sprintf("%s/%d/%d/%d", p.Name, nFuncs, callLo, callHi)
	if u, ok := spaceCache[key]; ok {
		return u
	}
	u := trace.Profile(p).Describe(trace.Shape{Funcs: nFuncs, CallLo: callLo, CallHi: callHi}).Build()
	spaceCache[key] = u
	return u
}

// MySQLSpace returns Φ_MySQL (testID × 19 functions × callNumber 1..100).
func MySQLSpace() *faultspace.Union { return spaceFor(targets.Mysqld(), 19, 1, 100) }

// ApacheSpace returns Φ_Apache (testID × 19 functions × callNumber 1..10).
func ApacheSpace() *faultspace.Union { return spaceFor(targets.Httpd(), 19, 1, 10) }

// CoreutilsSpace returns Φ_coreutils (29 × 19 × {0,1,2} = 1,653).
func CoreutilsSpace() *faultspace.Union { return spaceFor(targets.Coreutils(), 19, 0, 2) }

// session configures a session of alg over space against p, scored
// by expImpact.
func session(p *prog.Program, space *faultspace.Union, alg string, iters int, ex explore.Config) core.Config {
	return core.Config{
		Target:     p,
		Space:      space,
		Algorithm:  alg,
		Iterations: iters,
		Impact:     expImpact(),
		Explore:    ex,
	}
}

// mustRun runs a session to completion.
func mustRun(cfg core.Config) *core.ResultSet {
	res, err := core.Run(cfg)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return res
}

// expImpact is the impact scoring used throughout the experiment
// harness. It follows the §6.4 recipe (points per new basic block, 10
// per failed test, 20 per crash) with the block term scaled to this
// substrate: a simulated test covers a few percent of the program's
// blocks, where a real test covers fractions of a percent, so a smaller
// per-block weight keeps the coverage and failure terms in the same
// proportion the paper's metric had.
func expImpact() core.ImpactConfig {
	return core.ImpactConfig{PerNewBlock: 0.25, Failed: 10, Crash: 20, Hang: 15}
}

// run executes one session with the given algorithm and budget.
func run(p *prog.Program, space *faultspace.Union, alg string, iters int, seed int64, feedback bool) *core.ResultSet {
	cfg := session(p, space, alg, iters, explore.Config{Seed: seed})
	cfg.Feedback = feedback
	return mustRun(cfg)
}

// avg runs fn over reps seeds and averages the returned metrics
// element-wise.
func avg(o Opts, fn func(seed int64) []float64) []float64 {
	var sum []float64
	for r := 0; r < o.Reps; r++ {
		vals := fn(o.Seed + int64(r)*1000)
		if sum == nil {
			sum = make([]float64, len(vals))
		}
		for i, v := range vals {
			sum[i] += v
		}
	}
	for i := range sum {
		sum[i] /= float64(o.Reps)
	}
	return sum
}

// ---------------------------------------------------------------------------
// Fig. 1 — fault-space maps.

// FaultMap is a Fig. 1-style fault-space map of a target: which ⟨test,
// function⟩ cells fail, and which crash, when the Call-th call to the
// function is failed.
type FaultMap struct {
	Target    string
	Module    string // the tests' module; "" for the whole suite
	Call      int
	Functions []string
	TestIDs   []int
	TestNames []string
	// Fail[t][f] is true when failing call Call to Functions[f] during
	// TestIDs[t] makes the test fail; Crash[t][f] when it crashes (a
	// crash is a failure too).
	Fail, Crash [][]bool
}

// FaultMapFor maps target p: rows are the tests of module (the whole
// suite when ""), columns its nFuncs most-called libc functions, and
// each cell is one run with the call-th call to the function failed
// with the first error of its fault profile.
func FaultMapFor(p *prog.Program, module string, nFuncs, call int) FaultMap {
	funcs := trace.Profile(p).TopFunctions(nFuncs)
	m := FaultMap{Target: p.Name, Module: module, Call: call, Functions: funcs}
	for t, tc := range p.TestSuite {
		if module != "" && !strings.Contains(tc.Name, "/"+module+"-") {
			continue
		}
		fail, crash := make([]bool, len(funcs)), make([]bool, len(funcs))
		for j, fn := range funcs {
			out := prog.Run(p, t, planFor(fn, call))
			fail[j], crash[j] = out.Injected && out.Failed, out.Injected && out.Crashed
		}
		m.TestIDs, m.TestNames = append(m.TestIDs, t), append(m.TestNames, tc.Name)
		m.Fail, m.Crash = append(m.Fail, fail), append(m.Crash, crash)
	}
	return m
}

// Fig1 builds the fault-space map of the ls tests in the coreutils
// target, mirroring Fig. 1: black cells (true) are test failures.
func Fig1(o Opts) FaultMap { return FaultMapFor(targets.Coreutils(), "ls", 19, 1) }

// String renders the map with one row per test, '#' for failure, '.' for
// no failure — the ASCII analogue of Fig. 1.
func (r FaultMap) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — fault map of %s (rows: tests, cols: libc functions, '#' = test failure)\n", r.Module)
	for j, fn := range r.Functions {
		fmt.Fprintf(&b, "  col %2d: %s\n", j, fn)
	}
	for i, row := range r.Fail {
		fmt.Fprintf(&b, "  %-24s ", r.TestNames[i])
		for _, fail := range row {
			if fail {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Density returns the fraction of cells that are failures.
func (r FaultMap) Density() float64 {
	n, total := 0, 0
	for _, row := range r.Fail {
		for _, f := range row {
			total++
			if f {
				n++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// planFor builds the single-fault plan "fail the n-th call to fn" using
// the function's own fault profile.
func planFor(fn string, callNumber int) inject.Plan {
	prof := libc.Lookup(fn)
	if prof == nil {
		panic("experiments: unknown function " + fn)
	}
	return inject.Single(inject.Fault{Function: fn, CallNumber: callNumber, Err: prof.Errors[0]})
}
