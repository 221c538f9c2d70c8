package backend

// The process backend: real-process fault injection. Each leased
// scenario's armed plan is handed to a supervised fixture process over
// the shim protocol (package afex/shim), and the fixture's shim streams
// injection-point stacks, covered blocks and crash labels back over a
// pipe the supervisor passes as fd 3. This file holds what does not
// depend on how the process came to be: construction (which picks the
// supervisor's mode), the plan encoding, and the fold of a report and an
// exit disposition onto the model's outcome vocabulary (nonzero exit ⇒
// Failed, signaled exit ⇒ Crashed, killed by the timeout ⇒ Hung). The
// one supervisor — spawn, timeout kill, pipe drain, Close — is the pool
// in worker.go, for warm workers and fork/exec per scenario alike.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
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

// newProcess builds the process backend: one pool of supervised fixture
// processes (worker.go). It comes up warm — one persistent process per
// pool slot, re-armed per scenario — when the fixture answers the
// worker-mode probe, and one-shot — fork/exec per scenario — when it
// does not, or when the spec carries per-test argv tails (which must be
// baked in at spawn time).
func newProcess(cfg Config) (Runner, error) {
	if cfg.Command == nil || len(cfg.Command.Argv) == 0 {
		return nil, fmt.Errorf("process backend requires a command spec (cmd: target)")
	}
	// Surface a missing or non-executable binary at construction, not as
	// N identical per-test spawn failures.
	if _, err := exec.LookPath(cfg.Command.Argv[0]); err != nil {
		return nil, fmt.Errorf("process backend: %w", err)
	}
	p := &pool{spec: cfg.Command, timeout: cfg.Timeout, share: spawnShare}
	if p.timeout <= 0 {
		p.timeout = DefaultTimeout
	}
	procs := cfg.Procs
	if procs <= 0 {
		procs = DefaultProcs
	}
	p.slots, p.readers = make(chan *worker, procs), make(chan *bufio.Reader, procs)
	for i := 1; i < procs; i++ {
		p.slots <- nil
	}
	p.baseEnv = append(os.Environ(), shim.ReportFDEnv+"=3", shim.WorkerFDEnv+"=4")
	if len(cfg.Command.TestArgs) == 0 {
		if probe, err := p.spawn(Test{}); err == nil {
			p.slots <- probe
			return &workerRunner{p}, nil
		}
	}
	// One-shot: no arm pipe for the environment to name.
	p.oneShot, p.baseEnv = true, p.baseEnv[:len(p.baseEnv)-1]
	p.slots <- nil
	return p, nil
}

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
		b = shim.AppendString(append(b, `{"function":`...), f.Function)
		b = strconv.AppendInt(append(b, `,"callNumber":`...), int64(f.CallNumber), 10)
		if f.Err.Errno != "" {
			b = shim.AppendString(append(b, `,"errno":`...), f.Err.Errno)
		}
		b = strconv.AppendInt(append(b, `,"retval":`...), int64(f.Err.Retval), 10)
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

// foldEvents parses the shim's report stream into the outcome fields it
// carries directly: injection stack, covered blocks, and the planted
// crash label (returned separately — only a signaled death promotes it
// to the outcome). The block set is summed and interned in sets, the
// runner's table: scenarios that covered the same blocks share one map.
// A set already interned, reported in one sorted list as the shim sends
// all but the largest sets, is summed from the list and builds no map.
func foldEvents(events []shim.Event, sets *prog.BlockSets) (out prog.Outcome, crashID string) {
	lists, first := 0, []int(nil) // blocks events, and the first one's ids
	for i := range events {
		switch ev := &events[i]; ev.Kind {
		case shim.EventInject:
			out.Injected = true
			// The innermost frame is the injection point itself, in the
			// model's "function:pseudo-callsite" shape, so stacks cluster
			// by where the fault fired, not only by the path to it.
			stack := append([]string(nil), ev.Stack...)
			out.InjectionStack = append(stack, fmt.Sprintf("%s:c%d", ev.Function, ev.Call))
		case shim.EventBlocks:
			if lists++; lists == 1 {
				first = ev.Blocks
			}
		case shim.EventCrash:
			crashID = ev.ID
		}
	}
	if sum, ok := prog.SumAscending(first); ok && lists == 1 {
		if m := sets.Lookup(sum); m != nil {
			out.Blocks, out.BlockSum = m, sum
			return out, crashID
		}
	}
	for i := range events {
		if events[i].Kind == shim.EventBlocks {
			if out.Blocks == nil {
				out.Blocks = make(map[int]struct{}, len(first))
			}
			for _, b := range events[i].Blocks {
				out.Blocks[b] = struct{}{}
			}
		}
	}
	out.BlockSum = prog.SumBlocks(out.Blocks)
	out.Blocks = sets.Intern(out.BlockSum, out.Blocks)
	return out, crashID
}

// exitStatus is each exit code a process can report, rendered.
var exitStatus = func() (t [256]string) {
	for code := range t {
		t[code] = "exit:" + strconv.Itoa(code)
	}
	return t
}()

// foldExit maps an orderly scenario exit code onto the outcome
// vocabulary; shared by the one-shot process disposition and the warm
// worker's per-scenario "done" report.
func foldExit(out *prog.Outcome, ex *Exec, code int) {
	if 0 <= code && code < len(exitStatus) {
		ex.ExitStatus = exitStatus[code]
	} else {
		ex.ExitStatus = fmt.Sprintf("exit:%d", code)
	}
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
