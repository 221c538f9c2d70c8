// Package prog is the program-model engine: the substrate standing in for
// the real binaries (MySQL, Apache httpd, coreutils, MongoDB) that the
// paper injects faults into.
//
// A Program is a set of named routines grouped into modules; each routine
// is a straight-line sequence of operations. An operation either calls a
// simulated libc function (package libc) or another routine, and declares
// how the surrounding code reacts if that call fails — the error behaviour
// is the "recovery code" whose testing is the point of the paper. A test
// case is a script of routine invocations.
//
// Executing a test with an injection plan armed (Run) yields an Outcome:
// whether the test failed, whether the process crashed or hung, the
// simulated stack trace at the injection point (what AFEX clusters on),
// and the set of basic blocks covered (the gcov substitute).
//
// There is one interpreter, and it runs a compiled form of the Program
// built once, on the first Run (exec.go): names resolved to small ints,
// frame strings precomputed, per-function call counters a slice, coverage
// a bitset. A Program is therefore immutable after its first Run. Because
// Run is a pure function of (program, test, plan), each test's fault-free
// run is memoised on the Program, and a plan that cannot fire — no fault
// with 0 < callNumber ≤ the calls the test makes to its function — is
// answered from the memo without running anything. The memo holds at most
// suite × (blocks + functions) entries; with the compiled form it comes to
// ≈ 5 MB of heap on the mysqld target.
//
// Coverage sets are content-addressed (blocksum.go): the interpreter sums
// a run's set from its bitset into Outcome.BlockSum and hands a sum it has
// produced before the map it materialised then, so any two outcomes that
// covered the same blocks, memoised or not, may share one Blocks map — it
// is read-only to every holder. Downstream the sum is the set's identity:
// the engine's fold skips a set it has folded, a manager encodes it once.
//
// What makes this a faithful substrate is that the error behaviours are
// attached to code locations, so the induced fault space has the same kind
// of structure real systems have: faults that hit the same routine or
// module tend to have correlated impact, which is exactly the structure
// the AFEX search algorithm exploits (§2, Fig. 1).
package prog

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"afex/internal/libc"
)

// Behavior describes how the code surrounding a library call reacts when
// that call returns an error. This is the model's vocabulary of recovery
// code, spanning the spectrum the paper's found bugs illustrate.
type Behavior int

const (
	// Tolerate absorbs the error completely; execution continues as if
	// the call had succeeded (e.g. an advisory setlocale failing).
	Tolerate Behavior = iota
	// Propagate returns the error up the stack to the caller; if it
	// reaches the top of a test script, the test fails.
	Propagate
	// CleanRecovery runs dedicated recovery code (covering the op's
	// recovery block), releases resources, and then propagates a clean
	// error. This is correct recovery code.
	CleanRecovery
	// BuggyRecovery runs recovery code that itself has a bug and crashes
	// the process — the MySQL double-unlock pattern (Fig. 6): "the irony
	// of recovery code is that it is hard to test, yet, when it gets to
	// run in production, it cannot afford to fail."
	BuggyRecovery
	// RecoveredThenCrash runs recovery code that correctly handles and
	// logs the error, but the code after it uses state the failed call
	// should have initialized — the MySQL errmsg.sys pattern (§7.1).
	RecoveredThenCrash
	// UncheckedCrash ignores the return value and dereferences it
	// immediately — the Apache strdup pattern (Fig. 7). The process
	// crashes with no recovery code run.
	UncheckedCrash
	// UncheckedSilent ignores the return value harmlessly (the error
	// truly does not matter on this path).
	UncheckedSilent
	// AbortOnError detects the error and deliberately aborts the process
	// (assert-style handling). Counts as a crash outcome but runs the
	// recovery block first.
	AbortOnError
	// HangOnError enters a wait that never completes (lock not released,
	// blocking retry loop without timeout). The outcome is a hang.
	HangOnError
	// Retry re-issues the call once; if the retry also fails the error
	// propagates. Because injection is addressed by call number, the
	// retried call normally succeeds.
	Retry
	// ExitOnError terminates the whole program cleanly with a failure
	// exit code — gnulib's xalloc_die ("memory exhausted", exit 1). No
	// caller can absorb it, but it is an orderly exit, not a crash.
	ExitOnError
)

// String returns a developer-readable behaviour name.
func (b Behavior) String() string {
	switch b {
	case Tolerate:
		return "tolerate"
	case Propagate:
		return "propagate"
	case CleanRecovery:
		return "clean-recovery"
	case BuggyRecovery:
		return "buggy-recovery"
	case RecoveredThenCrash:
		return "recovered-then-crash"
	case UncheckedCrash:
		return "unchecked-crash"
	case UncheckedSilent:
		return "unchecked-silent"
	case AbortOnError:
		return "abort"
	case HangOnError:
		return "hang"
	case Retry:
		return "retry"
	case ExitOnError:
		return "exit"
	default:
		return fmt.Sprintf("behavior(%d)", int(b))
	}
}

// Op is one operation in a routine: a libc call or a routine call, plus
// the surrounding error handling.
type Op struct {
	// Func names the libc function this op calls. Empty when Callee is
	// set.
	Func string
	// Callee names a routine to call instead of libc. The callee's
	// propagated error is subject to this op's OnError behaviour.
	Callee string
	// Repeat re-executes the libc call this many times (a loop over the
	// same callsite). Zero means once. Repeats share the op's behaviour.
	Repeat int
	// OnError is the recovery behaviour when the call fails.
	OnError Behavior
	// Block is the basic block covered when the op executes (success or
	// failure — reaching the callsite covers it).
	Block int
	// RecoveryBlock, if non-zero, is the basic block covered only when
	// the error path runs. Recovery code coverage is the sum of these.
	RecoveryBlock int
	// CrashID labels the planted bug for crashing behaviours, so
	// experiments can recognize distinct bugs independently of stack
	// clustering.
	CrashID string
	// OnlyAfterError makes the op execute only when an earlier call in
	// the same routine has already failed — i.e. the op lives on the
	// routine's recovery path. This is how "the recovery code itself
	// calls the library" is modelled, the precondition for
	// fault-on-the-recovery-path bugs that need two injections.
	OnlyAfterError bool
	// ErrnoBehavior overrides OnError for specific errno values — the
	// way real error handling switches on errno (EINTR gets retried,
	// EIO aborts the operation, ENOSPC triggers cleanup...). It is what
	// makes the errno axis of a fault space meaningful: the same
	// callsite can recover from one error code and break on another.
	ErrnoBehavior map[string]Behavior
}

// behaviorFor resolves the effective behaviour for a failure with the
// given errno.
func (op *Op) behaviorFor(errno string) Behavior {
	if b, ok := op.ErrnoBehavior[errno]; ok {
		return b
	}
	return op.OnError
}

// Routine is a named straight-line sequence of ops belonging to a module.
type Routine struct {
	Name   string
	Module string
	Ops    []Op
}

// Test is one test case of the target's suite: a name and a script of
// routine invocations. The test fails if any invocation propagates an
// error (and stops there, like a shell script under `set -e`).
type Test struct {
	Name   string
	Script []string
}

// Program is a complete simulated system under test.
type Program struct {
	Name      string
	Routines  map[string]*Routine
	TestSuite []Test
	// NumBlocks is the total number of basic blocks, for coverage
	// percentages. Blocks are 1-based; 0 means "no block".
	NumBlocks int

	// code is the compiled form, built by the first Run. A Program is
	// immutable from then on: later edits to Routines or TestSuite are
	// not seen.
	code atomic.Pointer[compiled]
}

// Validate checks referential integrity: every script entry and callee
// must name an existing routine, block ids must be within range, and no
// routine may call itself, directly or through others. Generators call
// this once after construction.
func (p *Program) Validate() error {
	for name, r := range p.Routines {
		if r.Name != name {
			return fmt.Errorf("prog %s: routine map key %q != name %q", p.Name, name, r.Name)
		}
		for i, op := range r.Ops {
			if (op.Func == "") == (op.Callee == "") {
				return fmt.Errorf("prog %s: %s op %d must set exactly one of Func/Callee", p.Name, name, i)
			}
			if op.Func != "" && libc.Lookup(op.Func) == nil {
				return fmt.Errorf("prog %s: %s op %d calls unknown libc function %q", p.Name, name, i, op.Func)
			}
			if op.Callee != "" {
				if _, ok := p.Routines[op.Callee]; !ok {
					return fmt.Errorf("prog %s: %s op %d calls unknown routine %q", p.Name, name, i, op.Callee)
				}
			}
			if op.Block < 0 || op.Block > p.NumBlocks || op.RecoveryBlock < 0 || op.RecoveryBlock > p.NumBlocks {
				return fmt.Errorf("prog %s: %s op %d block out of range", p.Name, name, i)
			}
		}
	}
	for ti, t := range p.TestSuite {
		for _, rn := range t.Script {
			if _, ok := p.Routines[rn]; !ok {
				return fmt.Errorf("prog %s: test %d (%s) invokes unknown routine %q", p.Name, ti, t.Name, rn)
			}
		}
	}
	if cycle := p.callCycle(); cycle != nil {
		return fmt.Errorf("prog %s: routine call cycle %s", p.Name, strings.Join(cycle, " → "))
	}
	return nil
}

// callCycle returns a cycle of the routine call graph as a path that
// ends where it starts, or nil if the graph is acyclic. Roots are tried
// in name order so the cycle reported is always the same one.
func (p *Program) callCycle() []string {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int, len(p.Routines))
	var path []string
	var visit func(name string) []string
	visit = func(name string) []string {
		switch state[name] {
		case done:
			return nil
		case visiting:
			for i, n := range path {
				if n == name {
					return append(path[i:len(path):len(path)], name)
				}
			}
		}
		state[name] = visiting
		path = append(path, name)
		for _, op := range p.Routines[name].Ops {
			if op.Callee != "" {
				if cycle := visit(op.Callee); cycle != nil {
					return cycle
				}
			}
		}
		path = path[:len(path)-1]
		state[name] = done
		return nil
	}
	names := make([]string, 0, len(p.Routines))
	for name := range p.Routines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if cycle := visit(name); cycle != nil {
			return cycle
		}
	}
	return nil
}

// Outcome is the result of executing one test with (or without) fault
// injection. It is what sensors report to the node manager.
type Outcome struct {
	// Failed reports that the test did not pass (an error propagated to
	// the top of the script, or the process crashed/hung).
	Failed bool
	// Crashed reports a process crash (segfault/abort).
	Crashed bool
	// Hung reports a hang (deadlock / blocked forever).
	Hung bool
	// CrashID identifies the planted bug responsible for a crash, if the
	// crashing op labelled one.
	CrashID string
	// Injected reports whether the armed fault actually fired during the
	// run (callNumber within the executed range).
	Injected bool
	// InjectionStack is the simulated stack trace captured at the moment
	// the fault was injected — frames from outermost to innermost. This
	// is what redundancy clustering compares (§5).
	InjectionStack []string
	// Blocks is the set of basic blocks covered. It may be shared with
	// any outcome that covered the same set: read-only to every holder.
	Blocks map[int]struct{}
	// BlockSum is the content sum of Blocks (SumBlocks), computed by
	// whoever built the set (the interpreter, the process supervisor,
	// the RPC coordinator, journal replay) so that consumers can key on
	// it. 0 when Blocks is empty or no sum was computed: walk Blocks.
	BlockSum uint64
	// OpsExecuted counts executed operations (a cheap progress/perf
	// proxy).
	OpsExecuted int
}

// Coverage returns the fraction of the program's blocks covered.
func (o Outcome) Coverage(p *Program) float64 {
	if p.NumBlocks == 0 {
		return 0
	}
	return float64(len(o.Blocks)) / float64(p.NumBlocks)
}

// RecoveryBlocks returns the set of the program's recovery blocks
// (blocks reachable only on error paths). The coreutils experiment
// (§7.2) estimates "roughly 0.64% of the code performs recovery" by
// differencing coverage; the model knows the set exactly.
func (p *Program) RecoveryBlocks() map[int]struct{} {
	set := make(map[int]struct{})
	for _, r := range p.Routines {
		for _, op := range r.Ops {
			if op.RecoveryBlock != 0 {
				set[op.RecoveryBlock] = struct{}{}
			}
		}
	}
	return set
}

// FunctionsUsed returns the sorted set of libc functions referenced by
// the program's ops, a static approximation of what ltrace would observe
// over the whole suite.
func (p *Program) FunctionsUsed() []string {
	set := map[string]struct{}{}
	for _, r := range p.Routines {
		for _, op := range r.Ops {
			if op.Func != "" {
				set[op.Func] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
