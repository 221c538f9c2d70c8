package backend

// The warm-worker pool: the process backend's answer to the fork/exec
// tax. Instead of spawning one subprocess per leased scenario, the
// supervisor spawns Config.Procs persistent fixture processes in worker
// mode (AFEX_WORKER_FD set, no AFEX_PLAN) and streams re-arm messages —
// one serialized PlanWire per scenario — down each worker's arm pipe.
// The shim resets call counters and coverage between scenarios
// (shim.Serve / rearm) and answers each with a "done" event carrying
// the scenario's exit code, so a clean scenario costs one pipe write
// and one pipe read instead of a process lifetime — and a batch of
// scenarios (RunBatch) one write for all its arm lines, the worker
// serving them in order while the goroutine that armed it reads the
// report pipe.
//
// Lifecycle:
//
//   - A worker is recycled (arm pipe closed → orderly exit 0 → respawn
//     on next use) after Config.TestsPerProc scenarios, bounding how
//     much fixture state can leak across scenarios.
//   - A scenario that crashes its worker takes only that worker down:
//     the report pipe's EOF is the death signal, the in-flight scenario
//     folds exactly once — from the worker's ProcessState, exactly as a
//     one-shot crash would — and the slot respawns lazily.
//   - A scenario that exceeds the timeout gets its worker's process
//     group killed and folds to Hung, again exactly once.
//   - Arms queued behind a scenario that took its worker down were
//     never reached (the worker serves one at a time); they are armed
//     again on a fresh worker, so they too fold exactly once.
//   - Construction probes the fixture: a binary that never announces
//     worker readiness (an old one-shot fixture that ignores
//     AFEX_WORKER_FD) falls back to the cold per-scenario runner, so
//     warm workers are the default without breaking existing targets.

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"sync/atomic"
	"time"

	"afex/internal/inject"
	"afex/internal/prog"
	"afex/shim"
)

// DefaultTestsPerProc is how many scenarios one warm worker serves
// before recycling when Config.TestsPerProc is zero.
const DefaultTestsPerProc = 256

// readyTimeout caps the construction-time probe: a fixture that has not
// announced worker readiness this long after spawn is treated as a
// one-shot binary and the pool falls back to cold execution.
const readyTimeout = 2 * time.Second

// armGroupBytes caps the arm lines sent in one write. An idle worker's
// arm pipe is empty and holds at least a page, so a group this size is
// written whole or — the worker already dead — not at all, and the
// write never waits on a worker that is itself waiting to report.
const armGroupBytes = 4096

// reportLineMax is the longest report line either supervisor decodes;
// a longer one is skipped (see nextEvent).
const reportLineMax = 64 << 10

// worker is one persistent fixture process of the pool.
type worker struct {
	cmd *exec.Cmd
	arm *os.File // supervisor's write end of the arm pipe (child fd 4)
	// report is the supervisor's read end of the report pipe (child fd
	// 3), read through rd by whichever goroutine holds the worker's slot;
	// EOF is how it observes death.
	report *os.File
	rd     *bufio.Reader
	wait   chan error // buffered; receives cmd.Wait exactly once
	seq    int        // last arm sequence number whose done was awaited
	served int        // scenarios completed since spawn
	line   []byte     // arm-line render buffer
}

// workerRunner is the warm pool. It reuses the cold runner's spec,
// timeout and validation; cold remains the spawn-failure fallback path
// only in the sense that both speak the same fold vocabulary.
type workerRunner struct {
	spec         *CommandSpec
	timeout      time.Duration
	testsPerProc int
	baseEnv      []string
	// slots is the pool: cap = Procs, each holding a live worker or nil
	// (spawn lazily on first use). Receiving a slot bounds concurrency
	// exactly like the cold runner's semaphore.
	slots chan *worker
	sets  prog.BlockSets // see foldEvents
	// recycled counts workers retired after serving their quota
	// (Recycler capability; shutdown retires are not recycles).
	recycled atomic.Int64
	closed   atomic.Bool
}

// Recycles implements Recycler: quota-driven worker recycles so far.
func (p *workerRunner) Recycles() int64 { return p.recycled.Load() }

// Parallelism implements Parallel: the pool width (Config.Procs).
func (p *workerRunner) Parallelism() int { return cap(p.slots) }

// newWorkerRunner probes the fixture for worker mode and builds the
// pool, or returns nil when the fixture does not speak it (the caller
// falls back to the cold runner). cold supplies the already-validated
// spec and timeout.
func newWorkerRunner(cfg Config, cold *processRunner) Runner {
	tpp := cfg.TestsPerProc
	if tpp == 0 {
		tpp = DefaultTestsPerProc
	}
	p := &workerRunner{
		spec:         cold.spec,
		timeout:      cold.timeout,
		testsPerProc: tpp,
		baseEnv:      append(os.Environ(), shim.ReportFDEnv+"=3", shim.WorkerFDEnv+"=4"),
		slots:        make(chan *worker, cap(cold.sem)),
	}
	probe, err := p.spawn(0)
	if err != nil {
		return nil
	}
	p.slots <- probe
	for i := 1; i < cap(p.slots); i++ {
		p.slots <- nil
	}
	return p
}

// spawn launches one worker-mode fixture process and waits for its
// readiness announcement. The testID only feeds the argv template —
// worker-mode fixtures take the authoritative test id from each arm
// message.
func (p *workerRunner) spawn(testID int) (*worker, error) {
	argv := p.spec.ArgvFor(testID)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	isolateProcessGroup(cmd)

	reportR, reportW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	armR, armW, err := os.Pipe()
	if err != nil {
		reportR.Close()
		reportW.Close()
		return nil, err
	}
	// ExtraFiles[0] is child fd 3 (report, child writes), ExtraFiles[1]
	// is child fd 4 (arm, child reads); the env names both so the
	// convention can move.
	cmd.ExtraFiles = []*os.File{reportW, armR}
	cmd.Env = p.baseEnv

	if err := cmd.Start(); err != nil {
		reportR.Close()
		reportW.Close()
		armR.Close()
		armW.Close()
		return nil, err
	}
	reportW.Close() // child's ends now
	armR.Close()

	w := &worker{
		cmd:    cmd,
		arm:    armW,
		report: reportR,
		rd:     bufio.NewReaderSize(reportR, reportLineMax),
		wait:   make(chan error, 1),
	}
	go func() { w.wait <- cmd.Wait() }()

	// Handshake: a worker-mode shim emits "ready" before anything else.
	// A one-shot fixture instead runs its test fault-free and exits (the
	// report pipe closes without a ready), selecting the cold fallback.
	// (So does a platform whose pipes take no read deadline: the pool
	// could not time a scenario out.)
	if err := reportR.SetReadDeadline(time.Now().Add(readyTimeout)); err == nil {
		if ev, err := nextEvent(w.rd); err == nil && ev.Kind == shim.EventReady {
			return w, nil
		}
	}
	p.retire(w, 0)
	return nil, errNotWorkerMode
}

var errNotWorkerMode = errors.New("fixture does not speak worker mode")

// nextEvent returns the next event of a report stream. Lines that do
// not decode are skipped, and so is one longer than rd's buffer, through
// its newline — the events after it still pair with their scenarios.
func nextEvent(rd *bufio.Reader) (shim.Event, error) {
	for {
		line, err := rd.ReadSlice('\n')
		for err == bufio.ErrBufferFull {
			line = nil
			_, err = rd.ReadSlice('\n')
		}
		if err != nil {
			return shim.Event{}, err
		}
		var ev shim.Event
		if json.Unmarshal(line, &ev) == nil {
			return ev, nil
		}
	}
}

// retire shuts a worker down and waits out its exit. Closing the arm
// pipe is the orderly signal (shim.Serve returns and exits 0) a worker
// that served its quota gets p.timeout to honour; the kill that backs
// it up is immediate (grace 0) for handshake failures and a pool closed
// under a waiting batch.
func (p *workerRunner) retire(w *worker, grace time.Duration) {
	if w == nil {
		return
	}
	w.arm.Close()
	backstop := time.AfterFunc(grace, func() { killTree(w.cmd) })
	<-w.wait
	backstop.Stop()
	w.report.Close()
}

// Run executes one scenario on a warm worker: a batch of one.
func (p *workerRunner) Run(testID int, plan inject.Plan) (out prog.Outcome, ex Exec) {
	p.RunBatch([]Test{{TestID: testID, Plan: plan}}, func(_ int, o prog.Outcome, e Exec) { out, ex = o, e })
	return out, ex
}

// RunBatch implements Batcher: it holds one pool slot for the whole
// batch, spawning or respawning its worker as needed, and emits exactly
// one outcome per test, in order, each as its scenario ends — even when
// a scenario kills the worker mid-batch.
func (p *workerRunner) RunBatch(tests []Test, emit func(i int, out prog.Outcome, ex Exec)) {
	w := <-p.slots
	defer func() { p.slots <- w }()
	fail := func(i int, status string) {
		emit(i, prog.Outcome{Failed: true}, Exec{Backend: Process, ExitStatus: status})
	}
	if p.closed.Load() {
		p.retire(w, 0)
		w = nil
		for i := range tests {
			fail(i, "runner-closed")
		}
		return
	}
	// An arm write can fail only when the worker died between scenarios
	// (its outcomes already folded), so arming the same group again on a
	// fresh worker never double-reports a scenario; lost counts the
	// writes in a row that did, and the second gives up on the head.
	for i, lost := 0, 0; i < len(tests); {
		if w == nil {
			fresh, err := p.spawn(tests[i].TestID)
			if err != nil {
				fail(i, "spawn:"+err.Error())
				i++
				continue
			}
			w = fresh
		}
		n := p.runGroup(&w, i, tests[i:], emit)
		i += n
		switch {
		case n > 0:
			lost = 0
		case lost == 0:
			lost = 1
		default:
			fail(i, "worker-lost")
			i, lost = i+1, 0
		}
	}
}

// runGroup arms, in one write, as many of tests as *wp's recycle quota
// and armGroupBytes allow, then reads the report pipe and emits each
// outcome (tests[k] as index base+k) as its seq-paired done arrives. It
// returns how many tests it folded. Zero means the arm write failed
// against an already-dead worker: nothing was armed and the caller may
// arm again. Fewer than it armed means the last of them took the worker
// down, which never reached the arms queued behind it. *wp is nilled
// whenever the worker is gone (death, timeout, recycling), so the slot
// respawns lazily.
func (p *workerRunner) runGroup(wp **worker, base int, tests []Test, emit func(i int, out prog.Outcome, ex Exec)) int {
	w := *wp
	n, line := 0, w.line[:0]
	for most := min(len(tests), p.testsPerProc-w.served); n < most; n++ {
		mark := len(line)
		line = append(appendPlan(line, tests[n].TestID, w.seq+n+1, tests[n].Plan), '\n')
		if n > 0 && len(line) > armGroupBytes {
			line = line[:mark]
			break
		}
	}
	w.line = line
	start := time.Now()
	if _, err := w.arm.Write(line); err != nil {
		p.retire(w, 0)
		*wp = nil
		return 0
	}

	var events []shim.Event
	for k := 0; k < n; k++ {
		// The scenario's clock starts when the worker reaches it: at the
		// write for the first, at its predecessor's done for the rest.
		w.seq++
		events = events[:0]
		_ = w.report.SetReadDeadline(start.Add(p.timeout)) // took one at spawn; a closed pipe fails the read too
		for {
			ev, err := nextEvent(w.rd)
			if err != nil {
				// The scenario took its worker down and folds here, exactly
				// once. A passed deadline is a hang: kill the whole group,
				// fold Hung. Anything else is report-pipe EOF: a crash,
				// folded from the ProcessState as a one-shot death would be
				// (an orderly exit that bypassed Serve's done included).
				hung := errors.Is(err, os.ErrDeadlineExceeded)
				if hung {
					killTree(w.cmd)
				}
				<-w.wait
				w.arm.Close()
				w.report.Close()
				*wp = nil
				out, ex := foldReport(events, &p.sets, w.cmd.ProcessState, hung, time.Since(start))
				emit(base+k, out, ex)
				return k + 1
			}
			if ev.Kind == shim.EventDone && ev.Seq == w.seq {
				out, _ := foldEvents(events, &p.sets)
				ex := Exec{Backend: Process, Duration: time.Since(start)}
				foldExit(&out, &ex, ev.Exit)
				w.served++
				emit(base+k, out, ex)
				break
			}
			events = append(events, ev)
		}
		start = time.Now()
	}
	if w.served >= p.testsPerProc {
		p.retire(w, p.timeout)
		p.recycled.Add(1)
		*wp = nil
	}
	return n
}

// Close retires every worker and refuses further runs. Draining the
// slots waits out in-flight batches, exactly like the cold runner's
// semaphore drain.
func (p *workerRunner) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	workers := make([]*worker, 0, cap(p.slots))
	for i := 0; i < cap(p.slots); i++ {
		workers = append(workers, <-p.slots)
	}
	for _, w := range workers {
		p.retire(w, p.timeout)
	}
	for i := 0; i < cap(p.slots); i++ {
		p.slots <- nil
	}
	return nil
}
