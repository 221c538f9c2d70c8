package backend

// The process supervisor: one pool of Config.Procs slots, sized
// independently of the engine's workers, that runs every scenario of the
// process backend through one start → inject → sense → clean-up
// sequence. It comes up in one of two modes.
//
// Warm, its answer to the fork/exec tax: a slot holds a persistent
// fixture process in worker mode (AFEX_WORKER_FD set, no AFEX_PLAN) and
// the supervisor streams re-arm messages — one serialized PlanWire per
// scenario — down its arm pipe. The shim resets call counters and
// coverage between scenarios (shim.Serve / rearm) and answers each with
// a "done" event carrying the scenario's exit code, so a clean scenario
// costs one pipe write and one pipe read instead of a process lifetime —
// and a batch of scenarios (RunBatch) one write for all its arm lines,
// the worker serving them in order while the goroutine that armed it
// reads the report pipe.
//
// One-shot, for fixtures that do not speak worker mode and specs with
// per-test argv tails: a worker is spawned per scenario with the plan in
// AFEX_PLAN and no arm pipe, does no handshake, has no life to serve,
// and its scenario always takes it down — so it folds through the death
// branch below, like a warm crash.
//
// Lifecycle:
//
//   - A worker is recycled (arm pipe closed → orderly exit 0 → respawn
//     on next use) once the wall clock it has spent serving scenarios
//     reaches spawnShare times its own spawn-to-ready time, bounding how
//     long fixture state can leak across scenarios.
//   - A scenario that takes its worker down takes only that worker: the
//     report pipe's EOF is the death signal — or its closing pipeGrace
//     after the exit, when a helper holds the write end — the in-flight
//     scenario folds exactly once, from the worker's ProcessState, and
//     the slot respawns lazily.
//   - Each scenario runs under the worker's kill timer. Firing on a
//     process that has not exited, it kills the whole process group and
//     the scenario folds Hung, again exactly once; nothing else does.
//   - Arms queued behind a scenario that took its worker down were
//     never reached (the worker serves one at a time); they are armed
//     again on a fresh worker, so they too fold exactly once.
//   - Construction probes the fixture: a binary that never announces
//     worker readiness (an old one-shot fixture that ignores
//     AFEX_WORKER_FD) puts the pool in one-shot mode, so warm workers
//     are the default without breaking existing targets.

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"slices"
	"sync/atomic"
	"time"

	"afex/internal/inject"
	"afex/internal/prog"
	"afex/shim"
)

// spawnShare is how many times its own spawn-to-ready time a warm
// worker serves scenarios before it is recycled. Recycling bounds how
// long fixture state can leak across scenarios; measured against each
// worker's own start-up, it keeps that start-up at or under 1% of the
// worker's life whatever the fixture costs to spawn.
const spawnShare = 100

// readyTimeout caps the construction-time probe: a fixture that has not
// announced worker readiness this long after spawn is treated as a
// one-shot binary and the pool comes up one-shot.
const readyTimeout = 2 * time.Second

// armGroupBytes caps the arm lines sent in one write. An idle worker's
// arm pipe is empty and holds at least a page, so a group this size is
// written whole or — the worker already dead — not at all, and the
// write never waits on a worker that is itself waiting to report.
const armGroupBytes = 4096

// reportLineMax is the longest report line the supervisor decodes;
// a longer one is skipped (see nextEvent).
const reportLineMax = 64 << 10

// pipeGrace is how long the report pipe may outlive its process: a
// helper that inherited the write end keeps it from reaching EOF, so
// this long after the exit the read end is closed under the reader.
const pipeGrace = 500 * time.Millisecond

// A worker's fate: it runs until it exits by itself or the kill timer
// takes it down, whichever comes first.
const (
	running int32 = iota
	exited
	killed
)

// worker is one supervised fixture process of the pool.
type worker struct {
	cmd *exec.Cmd
	arm *os.File // supervisor's write end of the arm pipe (child fd 4); nil one-shot
	// report is the supervisor's read end of the report pipe (child fd
	// 3), read through rd by whichever goroutine holds the worker's slot;
	// EOF is how it observes death.
	report *os.File
	rd     *bufio.Reader
	wait   chan error // buffered; receives cmd.Wait exactly once
	// kill is the one timeout kill: armed for the handshake, for each
	// scenario and for a retirement, it takes the whole process group
	// down, and only its firing on a running worker makes a scenario Hung.
	kill  *time.Timer
	drain *time.Timer // closes report pipeGrace after the exit; set before wait is sent
	fate  atomic.Int32
	// start is when the scenario being served began: at the spawn
	// one-shot; warm, at its arm write or its predecessor's done.
	start time.Time
	seq   int // last arm sequence number whose done was awaited
	// busy is the wall clock spent serving scenarios since spawn, and
	// life the busy time after which the worker is recycled: the pool's
	// share of its spawn-to-ready time (zero one-shot).
	busy, life time.Duration
	line       []byte       // arm-line render buffer
	events     []shim.Event // a scenario's report, decoded into reused storage
}

// pool is the process supervisor: every spawn, timeout kill, pipe drain
// and death fold of the process backend happens here, in either mode.
type pool struct {
	spec    *CommandSpec
	timeout time.Duration
	// share is how many spawn-to-ready times a warm worker lives:
	// spawnShare, which in-package tests lower.
	share int
	// oneShot is the fork/exec-per-scenario mode: a worker is spawned
	// with its one scenario's plan in AFEX_PLAN and no arm pipe, shakes no
	// hands, and that scenario always takes it down.
	oneShot bool
	// baseEnv is the spawn environment minus the plan: the inherited
	// environment plus the fd conventions, built once at construction.
	baseEnv []string
	// slots is the pool: cap = Procs, each holding a live worker or nil
	// (spawn lazily on first use; always nil one-shot). Receiving a slot
	// bounds concurrency — effective parallelism is min(workers, procs).
	slots   chan *worker
	readers chan *bufio.Reader // reaped workers' report readers, for spawns to reuse
	sets    prog.BlockSets     // see foldEvents
	// recycled counts workers retired at the end of their life
	// (shutdown retires are not recycles).
	recycled atomic.Int64
	closed   atomic.Bool
}

// workerRunner is the pool come up warm, and the only process runner
// that is a Recycler: callers take the capability to mean "warm pool".
type workerRunner struct{ *pool }

// Recycles implements Recycler: workers recycled at the end of their
// life so far.
func (p *workerRunner) Recycles() int64 { return p.recycled.Load() }

// Parallelism implements Parallel: the pool width (Config.Procs).
func (p *pool) Parallelism() int { return cap(p.slots) }

// spawn launches one fixture process for t: warm, it waits for the
// readiness announcement and t.TestID only feeds the argv template
// (worker-mode fixtures take the authoritative test id from each arm
// message); one-shot, t's plan rides in the environment and the
// scenario is under way when spawn returns.
func (p *pool) spawn(t Test) (*worker, error) {
	argv := p.spec.ArgvFor(t.TestID)
	// Stdout and Stderr stay nil: the null device.
	cmd := exec.Command(argv[0], argv[1:]...)
	// The fixture leads its own process group, so a timeout kill reaps
	// any helpers it spawned instead of orphaning them one per hung test;
	// on Linux it also dies with the supervisor, whose death would take a
	// hung fixture's kill timer with it.
	isolateProcessGroup(cmd)

	w := &worker{cmd: cmd, wait: make(chan error, 1), start: time.Now()}
	reportR, reportW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	// ExtraFiles[0] is child fd 3 (report, child writes), ExtraFiles[1]
	// is child fd 4 (arm, child reads); the env names both so the
	// convention can move.
	cmd.ExtraFiles = []*os.File{reportW}
	if p.oneShot {
		// The capacity cap forces append to copy, so concurrent spawns
		// never share the hoisted slice's backing array.
		cmd.Env = append(p.baseEnv[:len(p.baseEnv):len(p.baseEnv)],
			shim.PlanEnv+"="+string(appendPlan(nil, t.TestID, 0, t.Plan)))
	} else {
		armR, armW, err := os.Pipe()
		if err != nil {
			reportR.Close()
			reportW.Close()
			return nil, err
		}
		cmd.ExtraFiles = append(cmd.ExtraFiles, armR)
		cmd.Env = p.baseEnv
		w.arm = armW
	}
	err = cmd.Start()
	for _, f := range cmd.ExtraFiles {
		f.Close() // the child's ends
	}
	if err != nil {
		reportR.Close()
		w.arm.Close()
		return nil, err
	}
	select {
	case w.rd = <-p.readers:
		w.rd.Reset(reportR)
	default:
		w.rd = bufio.NewReaderSize(reportR, reportLineMax)
	}
	w.report = reportR
	w.kill = time.AfterFunc(readyTimeout, func() {
		if w.fate.CompareAndSwap(running, killed) {
			killTree(cmd)
		}
	})
	// The exit is seen here, not at the pipe: it disarms the kill (a
	// reaped pid is nobody's to signal) and starts the pipe's grace.
	go func() {
		err := cmd.Wait()
		w.fate.CompareAndSwap(running, exited)
		w.drain = time.AfterFunc(pipeGrace, func() { reportR.Close() })
		w.wait <- err
	}()
	if p.oneShot {
		return w, nil
	}

	// Handshake: a worker-mode shim emits "ready" before anything else.
	// A one-shot fixture instead runs its test fault-free and exits (the
	// report pipe closes without a ready), or runs into the kill timer.
	var ev shim.Event
	if nextEvent(w.rd, &ev) == nil && ev.Kind == shim.EventReady && w.kill.Stop() {
		w.life = time.Duration(p.share) * time.Since(w.start)
		return w, nil
	}
	p.retire(w, 0)
	return nil, errNotWorkerMode
}

var errNotWorkerMode = errors.New("fixture does not speak worker mode")

// nextEvent decodes the next event of a report stream into ev. Lines
// that do not decode are skipped, and so is one longer than rd's buffer,
// through its newline — the events after it still pair with their scenarios.
func nextEvent(rd *bufio.Reader, ev *shim.Event) error {
	for {
		line, err := rd.ReadSlice('\n')
		for err == bufio.ErrBufferFull {
			line = nil
			_, err = rd.ReadSlice('\n')
		}
		if err != nil {
			return err
		}
		if _, err := shim.DecodeEvent(line, ev); err == nil {
			return nil
		}
	}
}

// reap waits out w's exit — whatever kill is armed for is the backstop —
// releases its pipes and hands its report reader on.
func (p *pool) reap(w *worker) {
	w.arm.Close()
	<-w.wait
	w.kill.Stop()
	w.drain.Stop()
	w.report.Close()
	select {
	case p.readers <- w.rd:
	default:
	}
}

// retire shuts a worker down and waits out its exit. Closing the arm
// pipe is the orderly signal (shim.Serve returns and exits 0) a worker
// at the end of its life gets p.timeout to honour; the kill that backs
// it up is immediate (grace 0) for handshake failures and a pool closed
// under a waiting batch.
func (p *pool) retire(w *worker, grace time.Duration) {
	if w == nil {
		return
	}
	w.kill.Reset(grace)
	p.reap(w)
}

// Run executes one scenario: a batch of one.
func (p *pool) Run(testID int, plan inject.Plan) (out prog.Outcome, ex Exec) {
	p.RunBatch([]Test{{TestID: testID, Plan: plan}}, func(_ int, o prog.Outcome, e Exec) { out, ex = o, e })
	return out, ex
}

// RunBatch implements Batcher: it holds one pool slot for the whole
// batch, spawning or respawning its worker as needed, and emits exactly
// one outcome per test, in order, each as its scenario ends — even when
// a scenario kills the worker mid-batch, as every one-shot scenario does.
func (p *pool) RunBatch(tests []Test, emit func(i int, out prog.Outcome, ex Exec)) {
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
			fresh, err := p.spawn(tests[i])
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

// armGroup writes the arm lines of as many of tests as armGroupBytes
// allows, in one write, and returns how many: zero when the write
// failed. The first scenario's clock starts at the write. One-shot, the
// spawn armed the one scenario and started its clock.
func (w *worker) armGroup(tests []Test) int {
	if w.arm == nil {
		return 1
	}
	n, line := 0, w.line[:0]
	for ; n < len(tests); n++ {
		mark := len(line)
		line = append(appendPlan(line, tests[n].TestID, w.seq+n+1, tests[n].Plan), '\n')
		if n > 0 && len(line) > armGroupBytes {
			line = line[:mark]
			break
		}
	}
	w.line = line
	w.start = time.Now()
	if _, err := w.arm.Write(line); err != nil {
		return 0
	}
	return n
}

// runGroup arms, in one write, as many of tests as armGroupBytes allows
// — one-shot, the spawn armed the one — then reads the report pipe and
// emits each outcome (tests[k] as index base+k) as its seq-paired done
// arrives. It returns how many tests it
// folded. Zero means the arm write failed against an already-dead
// worker: nothing was armed and the caller may arm again. Fewer than it
// armed means the last of them took the worker down, which never
// reached the arms queued behind it. *wp is nilled whenever the worker
// is gone (death, timeout, recycling), so the slot respawns lazily. A
// worker whose busy time has reached its life is recycled after the
// group, never inside it: the arms it holds are its to serve.
func (p *pool) runGroup(wp **worker, base int, tests []Test, emit func(i int, out prog.Outcome, ex Exec)) int {
	w := *wp
	n := w.armGroup(tests)
	if n == 0 {
		p.retire(w, 0)
		*wp = nil
		return 0
	}

	for k := 0; k < n; k++ {
		// The scenario's clock starts when the worker reaches it: at the
		// spawn or the write for the first, at its predecessor's done for
		// the rest.
		w.seq++
		events := w.events[:0]
		w.kill.Reset(p.timeout)
		for {
			// Each line reuses a slot's storage; the done's slot is dropped.
			events = slices.Grow(events, 1)[:len(events)+1]
			ev := &events[len(events)-1]
			if err := nextEvent(w.rd, ev); err != nil {
				// The scenario took its worker down and folds here, exactly
				// once: the report pipe reached EOF, or was closed pipeGrace
				// after the exit, and the exit is reaped. If the kill timer
				// brought it about the scenario hung; anything else folds
				// from the ProcessState (a crash, or an orderly exit: every
				// one-shot scenario's, or one that bypassed Serve's done).
				p.reap(w)
				*wp = nil
				out, ex := foldReport(events[:len(events)-1], &p.sets, w.cmd.ProcessState, w.fate.Load() == killed, time.Since(w.start))
				emit(base+k, out, ex)
				return k + 1
			}
			if ev.Kind == shim.EventDone && ev.Seq == w.seq {
				out, _ := foldEvents(events[:len(events)-1], &p.sets)
				ex := Exec{Backend: Process, Duration: time.Since(w.start)}
				foldExit(&out, &ex, ev.Exit)
				w.busy += ex.Duration
				w.events = events
				emit(base+k, out, ex)
				break
			}
		}
		w.start = time.Now()
		if !w.kill.Stop() {
			// The timer fired under the done: the worker is being killed,
			// and whatever it reached of the next arm is armed again.
			p.reap(w)
			*wp = nil
			return k + 1
		}
	}
	if w.busy >= w.life {
		p.retire(w, p.timeout)
		p.recycled.Add(1)
		*wp = nil
	}
	return n
}

// Close retires every worker and refuses further runs. Draining the
// slots waits out in-flight batches.
func (p *pool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	for i := 0; i < cap(p.slots); i++ {
		p.retire(<-p.slots, p.timeout)
	}
	for i := 0; i < cap(p.slots); i++ {
		p.slots <- nil
	}
	return nil
}
