// Package shim is the cooperating half of AFEX's process execution
// backend: a tiny, stdlib-only library that fixture binaries (real
// subprocesses under test) link to consult the armed injection plan and
// report what happened back to the supervising explorer.
//
// A fixture wraps its fallible library calls in Call, covers basic
// blocks with Cover, and flushes the coverage report on orderly exit:
//
//	func main() {
//	    defer shim.Flush()
//	    shim.Cover(1)
//	    if errno, _, failed := shim.Call("read"); failed {
//	        shim.Cover(2) // recovery path
//	        fmt.Fprintln(os.Stderr, "read failed:", errno)
//	        os.Exit(1)
//	    }
//	    ...
//	}
//
// Outside an AFEX session (AFEX_PLAN unset) every Call succeeds, Cover
// and Flush are no-ops, and the binary behaves exactly as if it had
// never linked the shim — fixtures stay runnable by hand.
//
// Fixtures that want to run warm (no fork/exec per scenario) hand their
// test body to Serve instead of calling it from main directly:
//
//	func main() {
//	    test, _ := strconv.Atoi(os.Args[1])
//	    shim.Serve(test, runTest) // runTest(test int) (exitCode int)
//	}
//
// Serve runs the body once and exits when spawned one-shot, and loops
// on supervisor re-arm messages when spawned in worker mode (see
// wire.go, "Worker mode").
//
// The wire protocol (AFEX_PLAN / AFEX_REPORT_FD / AFEX_WORKER_FD, the
// JSONL event stream) is documented in wire.go; the supervisor side
// lives in internal/backend.
package shim

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// state is the process-wide shim runtime, armed once from the
// environment on first use.
type state struct {
	active bool      // set by the first rearm and never cleared; read without mu
	report io.Writer // nil outside a supervised session
	worker *os.File

	mu     sync.Mutex
	plan   PlanWire
	calls  map[string]int // per-function call counters
	fired  []bool         // which plan faults already fired
	blocks map[int]struct{}
	cov    []int  // the covered-block set, sorted, as it last went out
	line   []byte // emit's render buffer
}

var (
	once sync.Once
	st   state
)

func arm() {
	// The pipes come up regardless of the plan: worker-mode processes
	// start plan-less (the first plan arrives as an arm message) but
	// must already be able to emit their "ready" event.
	if f := pipeFromEnv(ReportFDEnv, "afex-report"); f != nil {
		st.report = f
	}
	st.worker = pipeFromEnv(WorkerFDEnv, "afex-worker")
	raw := os.Getenv(PlanEnv)
	if raw == "" {
		return
	}
	var p PlanWire
	if _, err := new(PlanDecoder).Decode([]byte(raw), &p); err != nil {
		// A malformed plan means a broken supervisor, not a fixture bug;
		// run fault-free rather than guessing.
		return
	}
	rearm(&p)
}

// pipeFromEnv opens the inherited fd named (in decimal) by the
// environment variable, or nil when unset or not a plausible fd.
func pipeFromEnv(env, name string) *os.File {
	v := os.Getenv(env)
	if v == "" {
		return nil
	}
	fd, err := strconv.Atoi(v)
	if err != nil || fd <= 2 {
		return nil
	}
	return os.NewFile(uintptr(fd), name)
}

// rearm installs a copy of a plan and zeroes all per-scenario state:
// call counters, fired flags, and the covered-block set (cleared in
// place — a worker re-arms per scenario). One-shot processes rearm once
// from AFEX_PLAN; workers rearm per arm message.
func rearm(p *PlanWire) {
	st.mu.Lock()
	st.plan.TestID, st.plan.Seq = p.TestID, p.Seq
	st.plan.Faults = append(st.plan.Faults[:0], p.Faults...)
	if st.calls == nil {
		st.calls = make(map[string]int)
		st.blocks = make(map[int]struct{})
		st.active = true
	}
	clear(st.calls)
	clear(st.blocks)
	st.fired = append(st.fired[:0], make([]bool, len(p.Faults))...)
	st.mu.Unlock()
}

// Active reports whether the process runs under an AFEX supervisor with
// an armed plan.
func Active() bool {
	once.Do(arm)
	return st.active
}

// TestID returns the test index the supervisor selected (0 when
// inactive). Fixtures that take the test via argv can ignore it.
func TestID() int {
	once.Do(arm)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.plan.TestID
}

// Call consults the plan for one library call: the fixture names the
// function it is about to call (or to simulate), the shim counts the
// call and, when the armed plan says this exact call should fail,
// reports the fault — errno and retval to fail with — and immediately
// streams the injection-point stack trace to the supervisor. Each plan
// fault fires at most once. Safe for concurrent use.
func Call(function string) (errno string, retval int, failed bool) {
	once.Do(arm)
	if !st.active {
		return "", 0, false
	}
	st.mu.Lock()
	st.calls[function]++
	n := st.calls[function]
	for i := range st.plan.Faults {
		f := &st.plan.Faults[i]
		if st.fired[i] || f.CallNumber <= 0 {
			continue
		}
		if f.Function == function && f.CallNumber == n {
			// Copied under the lock: the next arm rewrites the plan in
			// place, and a goroutine of this scenario may outlive it.
			st.fired[i] = true
			errno, retval, failed = f.Errno, f.Retval, true
			break
		}
	}
	st.mu.Unlock()
	if !failed {
		return "", 0, false
	}
	emit(false, Event{
		Kind:     EventInject,
		Function: function,
		Call:     n,
		Stack:    captureStack(),
	})
	return errno, retval, true
}

// Cover records that the basic block executed. Block ids are the
// fixture's own; 0 is reserved for "no block".
func Cover(block int) {
	once.Do(arm)
	if !st.active || block == 0 {
		return
	}
	st.mu.Lock()
	st.blocks[block] = struct{}{}
	st.mu.Unlock()
}

// Crash labels a planted bug and flushes the label to the supervisor
// before the fixture brings the process down (a self-delivered fatal
// signal, an abort). Call it immediately before crashing so the
// supervisor can pair the label with the signaled exit.
func Crash(id string) {
	once.Do(arm)
	if !st.active {
		return
	}
	emit(false, Event{Kind: EventCrash, ID: id})
}

// Flush streams the covered-block set to the supervisor. Call it on
// orderly exit (defer in main); crashed processes lose coverage by
// design, like a real process dying before gcov flushes its counters.
// Flush may be called more than once; each call reports the cumulative
// set.
func Flush() {
	once.Do(arm)
	if !st.active {
		return
	}
	emit(true)
}

// Serve runs the fixture's per-test body under the supervisor and never
// returns. One-shot (no AFEX_WORKER_FD): run executes once with the
// test the fixture selected (typically from argv), coverage flushes,
// and the process exits with run's code — Flush-before-exit means
// orderly failure exits report coverage even though os.Exit skips
// deferred calls. Worker mode (AFEX_WORKER_FD set): Serve announces
// readiness and then runs one scenario per re-arm message — the armed
// plan's TestID overrides the spawn-time argument — until the
// supervisor closes the arm pipe, which is the orderly recycle signal
// (exit 0).
//
// run must return an exit code instead of calling os.Exit itself, so a
// warm worker survives failing scenarios; genuine crashes (planted
// bugs, fatal signals) still take the whole process down, and the
// supervisor maps the death and respawns.
func Serve(test int, run func(test int) int) {
	once.Do(arm)
	if st.worker == nil {
		code := run(test)
		Flush()
		os.Exit(code)
	}
	serveLoop(st.worker, run)
	os.Exit(0)
}

// serveLoop is Serve's worker-mode engine, split out so tests can drive
// it against an in-memory pipe. It returns at arm-pipe EOF. Arms may
// arrive several to a read; they are served in order, and each
// scenario's coverage and done leave in one write the moment it ends —
// a done held back for a later scenario would be lost to that
// scenario's crash, and the supervisor would blame the wrong one.
func serveLoop(armPipe io.Reader, run func(test int) int) {
	emit(false, Event{Kind: EventReady})
	sc := bufio.NewScanner(armPipe)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var (
		dec PlanDecoder
		p   PlanWire // reused: rearm copies what it keeps
	)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if _, err := dec.Decode(line, &p); err != nil {
			// A malformed arm message means a broken supervisor; report
			// the scenario as a clean no-op rather than stalling it.
			emit(false, Event{Kind: EventDone, Seq: p.Seq})
			continue
		}
		rearm(&p)
		code := run(p.TestID)
		emit(true, Event{Kind: EventDone, Exit: code, Seq: p.Seq})
	}
}

// emit writes the events — behind the covered-block set, in "blocks"
// lines, when cover is set — to the report pipe in one unbuffered write,
// so each is durable the moment emit returns: injection stacks survive
// an immediately following crash.
func emit(cover bool, evs ...Event) {
	if st.report == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.line = st.line[:0]
	if cover {
		st.cov = st.cov[:0]
		for b := range st.blocks {
			st.cov = append(st.cov, b)
		}
		sort.Ints(st.cov)
		for i := 0; i == 0 || i < len(st.cov); i += BlocksPerLine {
			ev := Event{Kind: EventBlocks, Blocks: st.cov[i:min(i+BlocksPerLine, len(st.cov))]}
			st.line = appendEvent(st.line, &ev)
		}
	}
	for i := range evs {
		st.line = appendEvent(st.line, &evs[i])
	}
	_, _ = st.report.Write(st.line) // a broken pipe means the supervisor is gone; nothing to do
}

// shimFile is this source file's path — the file every shim harness
// frame (Call, Serve, serveLoop) reports in a runtime stack.
var shimFile = func() string {
	_, file, _, _ := runtime.Caller(0)
	return file
}()

// captureStack renders the fixture's call stack at the injection point,
// outermost frame first, with the shim's own frames and runtime frames
// elided — the trace AFEX's redundancy clustering compares. Shim frames
// are filtered by source file, not call depth, so the same fixture code
// yields the same stack whether it runs one-shot (Serve → run) or
// re-armed in worker mode (Serve → serveLoop → run) — injection points
// must cluster together across execution modes. Frames render as
// "package.Function:line" so two faults on distinct lines of one
// function cluster apart, like the program model's pseudo-callsites.
func captureStack() []string {
	pc := make([]uintptr, 64)
	n := runtime.Callers(2, pc)
	frames := runtime.CallersFrames(pc[:n])
	var rev []string
	for {
		fr, more := frames.Next()
		name := fr.Function
		switch {
		case name == "":
		case strings.HasPrefix(name, "runtime."):
		case fr.File == shimFile:
		default:
			rev = append(rev, name+":"+strconv.Itoa(fr.Line))
		}
		if !more {
			break
		}
	}
	out := make([]string, len(rev))
	for i, fr := range rev {
		out[len(rev)-1-i] = fr
	}
	return out
}

// reset re-arms the shim from the current environment; tests only.
func reset() {
	st = state{}
	once = sync.Once{}
}
