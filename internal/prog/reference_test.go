package prog

// The tree-walking interpreter prog.Run used until the compiled form
// replaced it, kept verbatim as the differential oracle (the way
// cluster/memo_test.go keeps naiveSet), with a copy of the counting
// environment (libc.Env) and the once-only injector (inject.Injector) it
// ran against. Nothing outside this file's tests may call it.

import (
	"fmt"

	"afex/internal/inject"
	"afex/internal/libc"
)

// refEnv is libc.Env and inject.Injector in one: per-function call
// counters keyed by name, and a plan whose entries each fire at most
// once, the first unfired match in plan order winning.
type refEnv struct {
	plan   inject.Plan
	fired  []bool
	counts map[string]int
}

func (e *refEnv) Call(function string) (libc.ErrorReturn, bool) {
	if libc.Lookup(function) == nil {
		panic(fmt.Sprintf("libc: call to unregistered function %q", function))
	}
	e.counts[function]++
	n := e.counts[function]
	for i, f := range e.plan.Faults {
		if e.fired[i] || f.CallNumber <= 0 {
			continue
		}
		if f.Function == function && f.CallNumber == n {
			e.fired[i] = true
			return f.Err, true
		}
	}
	return libc.ErrorReturn{}, false
}

type executor struct {
	p       *Program
	env     *refEnv
	out     *Outcome
	stack   []string
	crashID string
	depth   int
}

// ReferenceRun is the old Run — range check, a fresh env armed with the
// plan, then the tree walk — also returning the env's per-function call
// counts. The one thing added to the old outcome is the content sum of
// the set the tree walk built, taken over the finished map, so that the
// differential tests hold the interpreter's bitset sum to it. Exported to
// the package's external tests only.
func ReferenceRun(p *Program, testID int, plan inject.Plan) (Outcome, map[string]int) {
	if testID < 0 || testID >= len(p.TestSuite) {
		return Outcome{Failed: true}, nil
	}
	env := &refEnv{plan: plan, fired: make([]bool, len(plan.Faults)), counts: make(map[string]int)}
	out := runEnv(p, testID, env)
	out.BlockSum = SumBlocks(out.Blocks)
	return out, env.counts
}

// RunFromScratch is Run without the memo: the compiled interpreter over
// the whole test with the plan armed, whether or not it can fire.
func RunFromScratch(p *Program, testID int, plan inject.Plan) Outcome {
	return p.compile().run(testID, plan, nil)
}

func runEnv(p *Program, testID int, env *refEnv) Outcome {
	out := Outcome{Blocks: make(map[int]struct{})}
	ex := &executor{p: p, env: env, out: &out}
	test := p.TestSuite[testID]
	for _, rn := range test.Script {
		ctl := ex.call(rn)
		switch ctl {
		case ctlError, ctlExit:
			out.Failed = true
		case ctlCrash:
			out.Failed = true
			out.Crashed = true
			out.CrashID = ex.crashID
		case ctlHang:
			out.Failed = true
			out.Hung = true
		}
		if ctl != ctlOK {
			break
		}
	}
	return out
}

func (ex *executor) call(routine string) control {
	r := ex.p.Routines[routine]
	if r == nil {
		panic(fmt.Sprintf("prog: call to unknown routine %q", routine))
	}
	if ex.depth >= maxDepth {
		panic(fmt.Sprintf("prog %s: routine call depth exceeds %d (cycle through %q?)", ex.p.Name, maxDepth, routine))
	}
	ex.depth++
	ex.stack = append(ex.stack, r.Module+"!"+r.Name)
	defer func() {
		ex.stack = ex.stack[:len(ex.stack)-1]
		ex.depth--
	}()

	sawError := false
	for i := range r.Ops {
		op := &r.Ops[i]
		if op.OnlyAfterError && !sawError {
			continue
		}
		ex.out.OpsExecuted++
		if op.Block != 0 {
			ex.out.Blocks[op.Block] = struct{}{}
		}
		var failed bool
		if op.Callee != "" {
			switch ex.call(op.Callee) {
			case ctlOK:
				failed = false
			case ctlError:
				failed = true
			case ctlCrash:
				return ctlCrash
			case ctlHang:
				return ctlHang
			case ctlExit:
				return ctlExit
			}
		} else {
			var er libc.ErrorReturn
			er, failed = ex.libcCall(op)
			if failed && op.behaviorFor(er.Errno) == Retry {
				// One retry of the same callsite; the injector fires per
				// call number, so the retry normally succeeds.
				er, failed = ex.libcCall(op)
				if failed {
					sawError = true
					if ctl := ex.fail(op, Propagate); ctl != ctlOK {
						return ctl
					}
				}
				continue
			}
			if failed {
				sawError = true
				if ctl := ex.fail(op, op.behaviorFor(er.Errno)); ctl != ctlOK {
					return ctl
				}
			}
			continue
		}
		if !failed {
			continue
		}
		sawError = true
		if ctl := ex.fail(op, op.OnError); ctl != ctlOK {
			return ctl
		}
	}
	return ctlOK
}

// libcCall performs one (or Repeat) simulated libc calls for op and
// reports whether any of them failed, returning the error of the failing
// call. The injection stack is snapshotted at the failing call.
func (ex *executor) libcCall(op *Op) (libc.ErrorReturn, bool) {
	n := op.Repeat
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		er, failed := ex.env.Call(op.Func)
		if failed {
			ex.out.Injected = true
			frame := fmt.Sprintf("%s:%s", op.Func, ex.frameHere(op))
			stack := make([]string, len(ex.stack), len(ex.stack)+1)
			copy(stack, ex.stack)
			ex.out.InjectionStack = append(stack, frame)
			return er, true
		}
	}
	return libc.ErrorReturn{}, false
}

func (ex *executor) frameHere(op *Op) string {
	// A stable pseudo-callsite: block id doubles as a line number.
	return fmt.Sprintf("b%d", op.Block)
}

// fail applies an error behaviour at op and returns the resulting control
// flow.
func (ex *executor) fail(op *Op, b Behavior) control {
	if op.RecoveryBlock != 0 {
		switch b {
		case CleanRecovery, BuggyRecovery, RecoveredThenCrash, AbortOnError, Propagate, ExitOnError:
			ex.out.Blocks[op.RecoveryBlock] = struct{}{}
		}
	}
	switch b {
	case Tolerate, UncheckedSilent:
		return ctlOK
	case Propagate, CleanRecovery:
		return ctlError
	case ExitOnError:
		return ctlExit
	case BuggyRecovery, RecoveredThenCrash, UncheckedCrash, AbortOnError:
		ex.crashID = op.CrashID
		if ex.crashID == "" {
			ex.crashID = fmt.Sprintf("crash@%s/b%d", top(ex.stack), op.Block)
		}
		return ctlCrash
	case HangOnError:
		return ctlHang
	case Retry:
		// Handled inline in call(); reaching here means a callee op was
		// (mis)labelled Retry — treat as propagate.
		return ctlError
	default:
		return ctlError
	}
}

func top(stack []string) string {
	if len(stack) == 0 {
		return "?"
	}
	return stack[len(stack)-1]
}
