// Package backend is AFEX's execution-backend registry: the layer that
// actually runs one armed fault-injection test against the system under
// test. Everything above it — candidate leasing, scenario→plan
// conversion, impact scoring, clustering (package core), the RPC node
// managers (package rpcnode) — is backend-agnostic; everything below it
// is how a test physically executes.
//
// Two backends are built in, constructed by name through the same
// registry contract as the exploration-strategy registry (unknown names
// fail construction with an error listing every valid choice):
//
//   - "model" runs the test in-process against the simulated program
//     model (package prog) — microsecond tests, fully deterministic,
//     the substrate of the paper-reproduction experiments.
//   - "process" runs the test as a real supervised subprocess: the
//     armed plan is handed to the child through the AFEX_PLAN
//     environment variable, a cooperating shim (package afex/shim)
//     linked into the fixture consults it and streams the
//     injection-point stack and covered blocks back over a report pipe,
//     and the supervisor maps the child's fate onto the same outcome
//     vocabulary the model uses — nonzero exit ⇒ Failed, signaled exit
//     ⇒ Crashed, wall-clock timeout ⇒ Hung.
//
// A Runner executes plans; it is deliberately below the fault-space
// layer (no points, no scenarios), so the in-process worker pool and
// remote node managers share one implementation per backend instead of
// duplicating it per deployment mode.
package backend

import (
	"time"

	"afex/internal/inject"
	"afex/internal/prog"
)

// Built-in backend names.
const (
	// Model is the in-process program-model backend (the default).
	Model = "model"
	// Process is the supervised-subprocess backend.
	Process = "process"
)

// Config carries everything a backend factory may need; each backend
// reads its own fields and ignores the rest.
type Config struct {
	// Target is the in-process program model (model backend).
	Target *prog.Program
	// Command describes how to launch the system under test (process
	// backend): the command template plus the per-test argument table.
	Command *CommandSpec
	// Timeout is the per-test wall-clock cap (process backend); a test
	// still running when it elapses is killed and reported Hung. Zero
	// selects DefaultTimeout.
	Timeout time.Duration
	// Procs bounds how many subprocesses may run concurrently (process
	// backend) — the process pool is sized independently of the
	// engine's worker count, so memory- or port-hungry targets can be
	// throttled below it. Zero selects DefaultProcs.
	Procs int
}

// Exec is the per-execution metadata a runner reports alongside the
// outcome: which backend ran the test, how the process ended, and how
// long it took. The model backend reports a zero Duration and empty
// ExitStatus — simulated runs are instantaneous and deterministic, and
// keeping them out of the journal keeps journal bytes deterministic for
// deterministic sessions.
type Exec struct {
	// Backend is the registered name of the backend that ran the test.
	Backend string
	// ExitStatus is the process disposition: "exit:N", "signal:<name>",
	// or "timeout". Empty for in-process model runs.
	ExitStatus string
	// Duration is the test's wall clock. Zero for model runs.
	Duration time.Duration
}

// Runner executes armed injection plans against the system under test.
// Implementations must be safe for concurrent use: the engine's worker
// pool and the RPC managers call Run from many goroutines.
type Runner interface {
	// Run executes the testID-th test with plan armed and returns what
	// the sensors observed plus the execution metadata.
	Run(testID int, plan inject.Plan) (prog.Outcome, Exec)
	// Close releases whatever the runner holds open (process pools,
	// fixtures); the runner is unusable afterwards. Idempotent.
	Close() error
}

// Recycler is the optional capability of runners that maintain a warm
// worker pool: Recycles reports how many worker processes have been
// recycled at the end of their life (a multiple of their own
// spawn-to-ready time). It must be safe to call
// concurrently with Run (the engine reads it while snapshotting).
type Recycler interface {
	Recycles() int64
}

// Parallel is the optional capability of runners with an internal pool:
// Parallelism reports how many Run calls the runner can usefully serve
// at once (the process backends' Config.Procs). A distributed manager
// runs that many worker loops by default, each executing its own lease;
// runners without the capability are assumed CPU-bound and get one loop
// per core. Every Runner must tolerate concurrent Run calls regardless;
// Parallelism only says how many of them make progress simultaneously.
type Parallel interface {
	Parallelism() int
}

// Test is one armed scenario of a batch: what Runner.Run takes.
type Test struct {
	TestID int
	Plan   inject.Plan
}

// Batcher is the optional capability of runners that execute a batch of
// tests for less than the sum of its Runs (the warm pool arms a whole
// batch on one worker in one pipe write). RunBatch calls emit exactly
// once per test, on the calling goroutine, in index order, each as its
// test ends; like Run it must be safe for concurrent use.
type Batcher interface {
	RunBatch(tests []Test, emit func(i int, out prog.Outcome, ex Exec))
}

// RunBatch executes tests on r — through its batch entry when it has
// one, one Run per test otherwise — under Batcher's emit contract.
func RunBatch(r Runner, tests []Test, emit func(i int, out prog.Outcome, ex Exec)) {
	if b, ok := r.(Batcher); ok {
		b.RunBatch(tests, emit)
		return
	}
	for i, t := range tests {
		out, ex := r.Run(t.TestID, t.Plan)
		emit(i, out, ex)
	}
}
