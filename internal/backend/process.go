package backend

// The process backend: real-process fault injection. Each leased
// scenario's armed plan is handed to a supervised subprocess over the
// shim protocol (package afex/shim): the plan travels in the AFEX_PLAN
// environment variable, and the fixture's shim streams injection-point
// stacks, covered blocks and crash labels back over a pipe the
// supervisor passes as fd 3. The supervisor enforces a per-test
// wall-clock timeout (expired tests are killed and reported Hung),
// maps exit dispositions onto the model's outcome vocabulary (nonzero
// exit ⇒ Failed, signaled exit ⇒ Crashed), and bounds concurrency with
// a process pool sized independently of the engine's workers.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"afex/internal/inject"
	"afex/internal/prog"
	"afex/shim"
)

// DefaultTimeout is the per-test wall-clock cap when Config.Timeout is
// unset. Real fault-injection tests cost up to seconds; a test still
// running after this long is assumed hung.
const DefaultTimeout = 10 * time.Second

// DefaultProcs bounds concurrent subprocesses when Config.Procs is
// unset.
const DefaultProcs = 4

type processRunner struct {
	spec    *CommandSpec
	timeout time.Duration
	// baseEnv is the spawn environment minus the plan: the inherited
	// environment plus the report-fd convention, built once at
	// construction. Per scenario only the AFEX_PLAN entry differs, so
	// Run appends it to a capacity-capped view of this slice instead of
	// re-walking os.Environ per spawn.
	baseEnv []string
	// sem is the process pool: one slot per concurrently running
	// subprocess. Sized independently of the engine's worker count —
	// effective parallelism is min(workers, procs).
	sem  chan struct{}
	sets prog.BlockSets // see foldEvents

	mu     sync.Mutex
	closed bool
}

// newProcess builds the process backend. It prefers the warm-worker
// pool (one persistent fixture process per pool slot, re-armed per
// scenario) and falls back to per-scenario fork/exec when the fixture
// does not speak worker mode, when the spec carries per-test argv tails
// (which must be baked in at spawn time), or when Config.TestsPerProc
// is negative.
func newProcess(cfg Config) (Runner, error) {
	cold, err := newColdProcess(cfg)
	if err != nil {
		return nil, err
	}
	if len(cfg.Command.TestArgs) > 0 || cfg.TestsPerProc < 0 {
		return cold, nil
	}
	if warm := newWorkerRunner(cfg, cold); warm != nil {
		return warm, nil
	}
	return cold, nil
}

// newColdProcess builds the one-shot (fork/exec per scenario) runner.
func newColdProcess(cfg Config) (*processRunner, error) {
	if cfg.Command == nil || len(cfg.Command.Argv) == 0 {
		return nil, fmt.Errorf("process backend requires a command spec (cmd: target)")
	}
	// Surface a missing or non-executable binary at construction, not as
	// N identical per-test spawn failures.
	if _, err := exec.LookPath(cfg.Command.Argv[0]); err != nil {
		return nil, fmt.Errorf("process backend: %w", err)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	procs := cfg.Procs
	if procs <= 0 {
		procs = DefaultProcs
	}
	return &processRunner{
		spec:    cfg.Command,
		timeout: timeout,
		baseEnv: append(os.Environ(), shim.ReportFDEnv+"=3"),
		sem:     make(chan struct{}, procs),
	}, nil
}

// Parallelism implements Parallel: the pool width (Config.Procs).
func (p *processRunner) Parallelism() int { return cap(p.sem) }

// appendPlan renders the armed plan as the bytes json.Marshal gives its
// shim.PlanWire: the AFEX_PLAN value (seq 0) and the worker arm line.
func appendPlan(b []byte, testID, seq int, plan inject.Plan) []byte {
	b = strconv.AppendInt(append(b, `{"testID":`...), int64(testID), 10)
	if seq != 0 {
		b = strconv.AppendInt(append(b, `,"seq":`...), int64(seq), 10)
	}
	b = append(b, `,"faults":[`...)
	for i, f := range plan.Faults {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(append(b, `{"function":`...), f.Function)
		b = strconv.AppendInt(append(b, `,"callNumber":`...), int64(f.CallNumber), 10)
		if f.Err.Errno != "" {
			b = appendString(append(b, `,"errno":`...), f.Err.Errno)
		}
		b = strconv.AppendInt(append(b, `,"retval":`...), int64(f.Err.Retval), 10)
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

// appendString quotes s as encoding/json does: verbatim when every byte
// is printable ASCII that JSON and HTML leave alone, through
// json.Marshal otherwise (function names come from user-written DSL
// sets). The shim keeps its own copy: fixtures link it alone.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // cannot fail for a string
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// Run launches one supervised test execution.
func (p *processRunner) Run(testID int, plan inject.Plan) (prog.Outcome, Exec) {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return prog.Outcome{Failed: true}, Exec{Backend: Process, ExitStatus: "runner-closed"}
	}

	argv := p.spec.ArgvFor(testID)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	// The fixture leads its own process group, so a timeout kill reaps
	// any helpers it spawned instead of orphaning them one per hung
	// test.
	isolateProcessGroup(cmd)

	pr, pw, err := os.Pipe()
	if err != nil {
		return prog.Outcome{Failed: true}, Exec{Backend: Process, ExitStatus: "spawn:" + err.Error()}
	}
	// The report pipe rides after stdio: ExtraFiles[0] is fd 3 in the
	// child, and AFEX_REPORT_FD names it so the convention can move.
	cmd.ExtraFiles = []*os.File{pw}
	// The capacity cap forces append to copy, so concurrent Runs never
	// share the hoisted slice's backing array.
	cmd.Env = append(p.baseEnv[:len(p.baseEnv):len(p.baseEnv)],
		shim.PlanEnv+"="+string(appendPlan(nil, testID, 0, plan)))

	start := time.Now()
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return prog.Outcome{Failed: true}, Exec{Backend: Process, ExitStatus: "spawn:" + err.Error()}
	}
	pw.Close() // parent's copy; the child holds the write end now

	// Drain the report pipe concurrently so a chatty fixture never
	// blocks on a full pipe buffer while the supervisor waits on it.
	var events []shim.Event
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rd := bufio.NewReaderSize(pr, reportLineMax)
		for ev, err := nextEvent(rd); err == nil; ev, err = nextEvent(rd) {
			events = append(events, ev)
		}
	}()

	waitDone := make(chan error, 1)
	go func() { waitDone <- cmd.Wait() }()
	timedOut := false
	timer := time.NewTimer(p.timeout)
	select {
	case <-waitDone:
		timer.Stop()
	case <-timer.C:
		// Per-test wall-clock budget exhausted: the test is hung. Kill
		// its whole process group and report Hung, not Crashed — the
		// signal is ours.
		timedOut = true
		killTree(cmd)
		<-waitDone
	}
	duration := time.Since(start)

	// The child exited, so the pipe EOFs once buffered events drain —
	// unless an inherited fd in a grandchild holds the write end open;
	// a short grace then force-closes the read end.
	select {
	case <-readerDone:
	case <-time.After(500 * time.Millisecond):
	}
	pr.Close()
	<-readerDone

	return foldReport(events, &p.sets, cmd.ProcessState, timedOut, duration)
}

// foldEvents parses the shim's report stream into the outcome fields it
// carries directly: injection stack, covered blocks, and the planted
// crash label (returned separately — only a signaled death promotes it
// to the outcome). The block set is summed and interned in sets, the
// runner's table: scenarios that covered the same blocks share one map.
func foldEvents(events []shim.Event, sets *prog.BlockSets) (out prog.Outcome, crashID string) {
	for _, ev := range events {
		switch ev.Kind {
		case shim.EventInject:
			out.Injected = true
			// The innermost frame is the injection point itself, in the
			// model's "function:pseudo-callsite" shape, so stacks cluster
			// by where the fault fired, not only by the path to it.
			stack := append([]string(nil), ev.Stack...)
			out.InjectionStack = append(stack, fmt.Sprintf("%s:c%d", ev.Function, ev.Call))
		case shim.EventBlocks:
			if out.Blocks == nil {
				out.Blocks = make(map[int]struct{}, len(ev.Blocks))
			}
			for _, b := range ev.Blocks {
				out.Blocks[b] = struct{}{}
			}
		case shim.EventCrash:
			crashID = ev.ID
		}
	}
	out.BlockSum = prog.SumBlocks(out.Blocks)
	out.Blocks = sets.Intern(out.BlockSum, out.Blocks)
	return out, crashID
}

// foldExit maps an orderly scenario exit code onto the outcome
// vocabulary; shared by the one-shot process disposition and the warm
// worker's per-scenario "done" report.
func foldExit(out *prog.Outcome, ex *Exec, code int) {
	ex.ExitStatus = fmt.Sprintf("exit:%d", code)
	out.Failed = code != 0
}

// foldDeath maps a signaled process death onto the outcome vocabulary:
// a real crash, labelled by the planted-bug id when the shim flushed
// one, or by a synthesized crash@<point>/<signal> id otherwise.
func foldDeath(out *prog.Outcome, ex *Exec, ps *os.ProcessState, crashID string) {
	ex.ExitStatus = "signal:" + signalName(ps)
	out.Failed = true
	out.Crashed = true
	out.CrashID = crashID
	if out.CrashID == "" {
		at := "?"
		if n := len(out.InjectionStack); n > 0 {
			at = out.InjectionStack[n-1]
		}
		out.CrashID = fmt.Sprintf("crash@%s/%s", at, signalName(ps))
	}
}

// foldReport maps the report events and the process disposition onto
// the engine's outcome vocabulary.
func foldReport(events []shim.Event, sets *prog.BlockSets, ps *os.ProcessState, timedOut bool, duration time.Duration) (prog.Outcome, Exec) {
	out, crashID := foldEvents(events, sets)
	ex := Exec{Backend: Process, Duration: duration}
	switch {
	case timedOut:
		ex.ExitStatus = "timeout"
		out.Failed = true
		out.Hung = true
	case ps != nil && ps.ExitCode() >= 0:
		foldExit(&out, &ex, ps.ExitCode())
	default:
		// ExitCode < 0 without our timeout kill: the process died on a
		// signal — a real crash.
		foldDeath(&out, &ex, ps, crashID)
	}
	return out, ex
}

// signalName extracts the signal from a ProcessState's description
// ("signal: killed" → "killed") without reaching into the
// platform-specific WaitStatus.
func signalName(ps *os.ProcessState) string {
	if ps == nil {
		return "unknown"
	}
	s := ps.String()
	if i := strings.Index(s, "signal: "); i >= 0 {
		name := s[i+len("signal: "):]
		if j := strings.IndexByte(name, ' '); j >= 0 {
			name = name[:j]
		}
		return name
	}
	return s
}

// Close waits for in-flight executions to finish and refuses further
// runs.
func (p *processRunner) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	// Draining every pool slot waits out the in-flight subprocesses.
	for i := 0; i < cap(p.sem); i++ {
		p.sem <- struct{}{}
	}
	for i := 0; i < cap(p.sem); i++ {
		<-p.sem
	}
	return nil
}
