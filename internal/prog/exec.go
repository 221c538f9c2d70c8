package prog

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"afex/internal/inject"
	"afex/internal/libc"
)

// compiled is a Program resolved for execution, built once on the first
// Run: routines and libc functions are small ints, stack frame strings
// are precomputed, and block ids are renumbered densely so coverage is a
// bitset. It also owns the per-test fault-free memo.
type compiled struct {
	name     string
	routines []cRoutine
	scripts  [][]int32 // per test, routine ids
	// funcs is FunctionsUsed(): a function's id is its index there.
	funcs  []string
	funcID map[string]int32
	blocks []int // dense block index → block id
	// mixes[i] is mix(blocks[i]): a run sums its coverage from the
	// bitset, and sets interns the maps materialised so far by that sum.
	mixes []uint64
	sets  BlockSets
	// memo[t] is test t's fault-free run, filled on first use by the
	// same interpreter. At most suite × (blocks + functions) entries.
	memo     []atomic.Pointer[faultFree]
	machines sync.Pool // run's scratch; runs are concurrent
}

type cRoutine struct {
	name  string // the Routines key
	frame string // "module!name"
	ops   []cOp
}

type cOp struct {
	src            *Op
	callee         int32 // routine id, or -1 for a libc call
	fn             int32
	repeat         int32
	block          int32 // dense index, or -1 for none
	recovery       int32
	onlyAfterError bool
	leaf           string // "func:bN", the injection stack's innermost frame
}

// faultFree is what a test does when nothing is injected.
type faultFree struct {
	out   Outcome
	calls []int32 // per function id
}

// maxDepth bounds routine recursion; Validate rejects call cycles, but an
// unvalidated hand-built target with one should fail loudly, not blow the
// Go stack.
const maxDepth = 64

// compile returns p's compiled form, building it on first use. A call to
// an unknown routine or to a function the simulated libc lacks is a
// programming error in the model and panics here, once, rather than at
// each call.
func (p *Program) compile() *compiled {
	if c := p.code.Load(); c != nil {
		return c
	}
	c := &compiled{
		name:    p.Name,
		funcs:   p.FunctionsUsed(),
		funcID:  make(map[string]int32),
		scripts: make([][]int32, len(p.TestSuite)),
		memo:    make([]atomic.Pointer[faultFree], len(p.TestSuite)),
	}
	for i, fn := range c.funcs {
		c.funcID[fn] = int32(i)
	}
	routineID := make(map[string]int32, len(p.Routines))
	for name, r := range p.Routines {
		if r != nil {
			routineID[name] = int32(len(routineID))
		}
	}
	resolve := func(name string) int32 {
		id, ok := routineID[name]
		if !ok {
			panic(fmt.Sprintf("prog: call to unknown routine %q", name))
		}
		return id
	}
	blockIdx := map[int]int32{}
	dense := func(block int) int32 {
		if block == 0 {
			return -1
		}
		idx, ok := blockIdx[block]
		if !ok {
			idx = int32(len(c.blocks))
			blockIdx[block] = idx
			c.blocks = append(c.blocks, block)
			c.mixes = append(c.mixes, mix(block))
		}
		return idx
	}
	c.routines = make([]cRoutine, len(routineID))
	for name, id := range routineID {
		r := p.Routines[name]
		cr := cRoutine{name: name, frame: r.Module + "!" + r.Name, ops: make([]cOp, len(r.Ops))}
		for i := range r.Ops {
			op := &r.Ops[i]
			co := cOp{src: op, callee: -1, block: dense(op.Block), recovery: dense(op.RecoveryBlock),
				onlyAfterError: op.OnlyAfterError}
			if op.Callee != "" {
				co.callee = resolve(op.Callee)
			} else {
				if libc.Lookup(op.Func) == nil {
					panic(fmt.Sprintf("libc: call to unregistered function %q", op.Func))
				}
				co.fn = c.funcID[op.Func]
				co.repeat = int32(max(op.Repeat, 1))
				co.leaf = op.Func + ":b" + strconv.Itoa(op.Block)
			}
			cr.ops[i] = co
		}
		c.routines[id] = cr
	}
	for t, test := range p.TestSuite {
		c.scripts[t] = make([]int32, len(test.Script))
		for i, rn := range test.Script {
			c.scripts[t][i] = resolve(rn)
		}
	}
	if !p.code.CompareAndSwap(nil, c) {
		return p.code.Load() // a concurrent first Run won; share its memo
	}
	return c
}

// armedFault is one plan entry resolved to a function id. It fires at
// most once: a function's call counter passes each number once.
type armedFault struct {
	fn   int32
	call int
	err  libc.ErrorReturn
}

// Run executes the testID-th test of the program with the given plan
// armed, returning the outcome. testID is 0-based. A plan whose faults
// never match (e.g. callNumber 0 or beyond the executed range) yields the
// fault-free outcome with Injected == false.
//
// Execution is deterministic: the same (program, testID, plan) triple
// always yields the same outcome. Determinism is what makes the
// generated regression tests replayable and the impact-precision metric
// meaningful — and what lets Run answer a plan that cannot fire from the
// test's memoised fault-free run: nothing fires before the first fault
// that would fire fault-free, so if no fault names a call the fault-free
// run reaches, the run is the fault-free run. The returned Blocks map is
// shared with every outcome of p that covered the same set: read-only.
func Run(p *Program, testID int, plan inject.Plan) Outcome {
	if testID < 0 || testID >= len(p.TestSuite) {
		return Outcome{Failed: true}
	}
	c := p.compile()
	if ff := c.faultFree(testID); !c.reaches(ff, plan) {
		return ff.out
	}
	return c.run(testID, plan, nil)
}

// reaches reports whether the fault-free run makes a call one of the
// plan's faults names, which is whether a run with the plan armed
// differs from it at all.
func (c *compiled) reaches(ff *faultFree, plan inject.Plan) bool {
	for _, f := range plan.Faults {
		if id, ok := c.funcID[f.Function]; ok && f.CallNumber > 0 && f.CallNumber <= int(ff.calls[id]) {
			return true
		}
	}
	return false
}

// FaultFree returns the memoised fault-free outcome of test testID and
// how often it calls each function, indexed like FunctionsUsed() — the
// ltrace view of one test. Both are shared with every other caller and
// read-only.
func (p *Program) FaultFree(testID int) (Outcome, []int32) {
	if testID < 0 || testID >= len(p.TestSuite) {
		return Outcome{Failed: true}, nil
	}
	ff := p.compile().faultFree(testID)
	return ff.out, ff.calls
}

func (c *compiled) faultFree(testID int) *faultFree {
	if ff := c.memo[testID].Load(); ff != nil {
		return ff
	}
	calls := make([]int32, len(c.funcs))
	out := c.run(testID, inject.Plan{}, calls)
	c.memo[testID].CompareAndSwap(nil, &faultFree{out: out, calls: calls})
	return c.memo[testID].Load()
}

// control models non-local exit of routine execution.
type control int

const (
	ctlOK control = iota
	ctlError
	ctlCrash
	ctlHang
	// ctlExit is an orderly whole-program exit with a failure code; it
	// unwinds past every caller like a crash but is not one.
	ctlExit
)

// machine is the state of one execution.
type machine struct {
	c       *compiled
	armed   []armedFault
	calls   []int32  // per function id
	covered []uint64 // bitset over dense block indices
	stack   []string
	out     Outcome
}

// run interprets one test with the plan's faults that could ever fire
// armed — a call number above 0, a function the program calls — and
// returns the outcome, copying the per-function call counts into calls.
// It runs on a machine from c's pool and hands it back cleared (the
// stack's frames are c's own strings).
func (c *compiled) run(testID int, plan inject.Plan, calls []int32) Outcome {
	m, _ := c.machines.Get().(*machine)
	if m == nil {
		m = &machine{c: c, calls: make([]int32, len(c.funcs)), covered: make([]uint64, (len(c.blocks)+63)/64), stack: make([]string, 0, 8)}
	}
	for _, f := range plan.Faults {
		if id, ok := c.funcID[f.Function]; ok && f.CallNumber > 0 {
			m.armed = append(m.armed, armedFault{fn: id, call: f.CallNumber, err: f.Err})
		}
	}
	for _, rid := range c.scripts[testID] {
		ctl := m.call(rid)
		if ctl == ctlOK {
			continue
		}
		m.out.Failed = true
		m.out.Crashed = ctl == ctlCrash
		m.out.Hung = ctl == ctlHang
		break
	}
	var acc uint64
	n := 0
	for i, w := range m.covered {
		n += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			acc += c.mixes[i*64+bits.TrailingZeros64(w)]
		}
	}
	// A set this program has produced before is not materialised again.
	m.out.BlockSum = closeSum(acc, n)
	if m.out.Blocks = c.sets.Lookup(m.out.BlockSum); m.out.Blocks == nil {
		blocks := make(map[int]struct{}, n)
		for i, w := range m.covered {
			for ; w != 0; w &= w - 1 {
				blocks[c.blocks[i*64+bits.TrailingZeros64(w)]] = struct{}{}
			}
		}
		m.out.Blocks = c.sets.Intern(m.out.BlockSum, blocks)
	}
	out := m.out
	copy(calls, m.calls)
	clear(m.calls)
	clear(m.covered)
	clear(m.armed)
	m.armed, m.out = m.armed[:0], Outcome{}
	c.machines.Put(m)
	return out
}

func (m *machine) cover(block int32) {
	if block >= 0 {
		m.covered[block>>6] |= 1 << (block & 63)
	}
}

func (m *machine) call(rid int32) control {
	r := &m.c.routines[rid]
	if len(m.stack) >= maxDepth {
		panic(fmt.Sprintf("prog %s: routine call depth exceeds %d (cycle through %q?)", m.c.name, maxDepth, r.name))
	}
	m.stack = append(m.stack, r.frame)
	ctl := m.body(r)
	m.stack = m.stack[:len(m.stack)-1]
	return ctl
}

func (m *machine) body(r *cRoutine) control {
	sawError := false
	for i := range r.ops {
		op := &r.ops[i]
		if op.onlyAfterError && !sawError {
			continue
		}
		m.out.OpsExecuted++
		m.cover(op.block)
		var b Behavior
		if op.callee >= 0 {
			switch ctl := m.call(op.callee); ctl {
			case ctlOK:
				continue
			case ctlError:
				b = op.src.OnError
			default:
				return ctl
			}
		} else {
			er, failed := m.libcCall(op)
			if !failed {
				continue
			}
			if b = op.src.behaviorFor(er.Errno); b == Retry {
				// One retry of the same callsite; injection is per call
				// number, so the retry normally succeeds.
				if _, failed = m.libcCall(op); !failed {
					continue
				}
				b = Propagate
			}
		}
		sawError = true
		if ctl := m.fail(r, op, b); ctl != ctlOK {
			return ctl
		}
	}
	return ctlOK
}

// libcCall performs op's Repeat simulated libc calls, counting each, and
// reports the first one an armed fault fails, snapshotting the injection
// stack there.
func (m *machine) libcCall(op *cOp) (libc.ErrorReturn, bool) {
	for i := int32(0); i < op.repeat; i++ {
		m.calls[op.fn]++
		n := int(m.calls[op.fn])
		for j := range m.armed {
			if a := &m.armed[j]; a.fn == op.fn && a.call == n {
				m.out.Injected = true
				m.out.InjectionStack = append(append(make([]string, 0, len(m.stack)+1), m.stack...), op.leaf)
				return a.err, true
			}
		}
	}
	return libc.ErrorReturn{}, false
}

// fail applies an error behaviour at op (in routine r) and returns the
// resulting control flow.
func (m *machine) fail(r *cRoutine, op *cOp, b Behavior) control {
	switch b {
	case CleanRecovery, BuggyRecovery, RecoveredThenCrash, AbortOnError, Propagate, ExitOnError:
		m.cover(op.recovery)
	}
	switch b {
	case Tolerate, UncheckedSilent:
		return ctlOK
	case ExitOnError:
		return ctlExit
	case BuggyRecovery, RecoveredThenCrash, UncheckedCrash, AbortOnError:
		m.out.CrashID = op.src.CrashID
		if m.out.CrashID == "" {
			m.out.CrashID = "crash@" + r.frame + "/b" + strconv.Itoa(op.src.Block)
		}
		return ctlCrash
	case HangOnError:
		return ctlHang
	default:
		// Propagate and CleanRecovery; also Retry on a callee op, which
		// only a libc call can honour.
		return ctlError
	}
}
