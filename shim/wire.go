package shim

// The AFEX process-backend wire protocol. The supervisor (package
// internal/backend, the "process" execution backend) launches the system
// under test as a real subprocess and speaks to the cooperating shim
// linked into it through two channels:
//
//   - PlanEnv (AFEX_PLAN): a JSON PlanWire carrying the armed injection
//     plan — which library calls to fail, on which call number, with
//     which errno/retval — plus the testID the supervisor selected. An
//     empty or unset AFEX_PLAN deactivates the shim entirely: the
//     fixture runs fault-free, exactly as if it had never linked the
//     shim.
//   - ReportFDEnv (AFEX_REPORT_FD): the file descriptor number of the
//     report pipe the supervisor opened before exec (conventionally 3,
//     the first slot after stdio). The shim streams newline-delimited
//     JSON Events into it: an "inject" event the moment a fault fires
//     (carrying the injection-point stack trace AFEX clusters on), an
//     optional "crash" event labelling a planted bug just before the
//     process dies, and a final "blocks" event with the covered-block
//     set flushed on orderly exit.
//
// Injection events are written and flushed immediately, not buffered to
// exit: a fixture that crashes or is SIGKILLed right after the fault
// fires still delivers the stack the supervisor needs for redundancy
// clustering. Coverage is best-effort by design — a crashed process
// loses its "blocks" event, mirroring how gcov data is lost when a real
// process dies without flushing counters.
//
// # Worker mode
//
// Spawning a fresh process per scenario pays a full fork/exec + runtime
// start per test. Worker mode removes that tax: the supervisor spawns
// the fixture once with WorkerFDEnv (AFEX_WORKER_FD) naming a second
// pipe (conventionally fd 4, the slot after the report pipe) and NO
// AFEX_PLAN, and the fixture hands its per-test body to Serve. The shim
// then announces itself with a "ready" event and loops: each
// newline-delimited JSON PlanWire arriving on the worker pipe re-arms
// the plan (call counters, fired flags and coverage reset to zero), the
// test body runs, and the scenario's "blocks" and a "done" event echoing
// the arm message's Seq and carrying its exit code leave in one write —
// all without a new process. EOF on the worker pipe is the orderly
// shutdown signal (the supervisor recycles workers by closing their arm
// pipe).
//
// The supervisor may send several arm lines in one write (a lease batch
// its engine worker holds); they are served one at a time, in order,
// and the supervisor times each from the done before it. A scenario
// that crashes or hangs takes the whole worker down exactly like a
// one-shot process would: the supervisor observes the missing "done",
// maps the death the usual way onto that scenario alone, respawns only
// that worker, and arms the lines queued behind the dead scenario —
// which the worker never reached — again on the fresh one. A shim
// written elsewhere must therefore keep doing three things: read the
// worker pipe line by line, answer every arm line with a "done" echoing
// its Seq, and never hold a "done" back behind a later scenario (its
// crash would lose the held ones and the wrong scenario would be
// blamed).

// Environment variable names of the supervisor→shim half of the
// protocol.
const (
	// PlanEnv carries the JSON-encoded PlanWire.
	PlanEnv = "AFEX_PLAN"
	// ReportFDEnv carries the decimal fd number of the report pipe.
	ReportFDEnv = "AFEX_REPORT_FD"
	// WorkerFDEnv carries the decimal fd number of the worker arm pipe
	// (supervisor→shim). Its presence selects worker mode: Serve loops
	// on re-arm messages instead of running one scenario and exiting.
	WorkerFDEnv = "AFEX_WORKER_FD"
)

// Event kinds of the shim→supervisor half of the protocol.
const (
	// EventInject reports a fired fault: Function/Call identify the
	// injection point, Stack is the trace (outermost frame first).
	EventInject = "inject"
	// EventBlocks reports the covered basic blocks, once, at orderly
	// exit.
	EventBlocks = "blocks"
	// EventCrash labels a planted bug (CrashID) just before the process
	// kills itself; the supervisor pairs it with the signaled exit.
	EventCrash = "crash"
	// EventReady announces a worker-mode shim: Serve emits it once,
	// before the first arm message, so the supervisor can distinguish a
	// warm worker from a one-shot fixture that ignores WorkerFDEnv.
	EventReady = "ready"
	// EventDone ends one worker-mode scenario: Exit is the test body's
	// exit code, Seq echoes the arm message so the supervisor can pair
	// the report with the scenario it armed.
	EventDone = "done"
)

// PlanWire is the JSON document carried in AFEX_PLAN: one armed
// injection plan for one test execution.
type PlanWire struct {
	// TestID selects which of the fixture's test cases this execution
	// runs; it is informational for fixtures that already receive the
	// test via argv (one-shot mode), and authoritative in worker mode,
	// where argv was fixed at spawn time.
	TestID int `json:"testID"`
	// Seq numbers the arm message within a worker's lifetime; the
	// scenario's EventDone echoes it. Zero in one-shot AFEX_PLAN use.
	Seq int `json:"seq,omitempty"`
	// Faults are the armed faults, in plan order.
	Faults []FaultWire `json:"faults"`
}

// FaultWire is one atomic fault of a plan: fail the CallNumber-th call
// to Function with the given errno and return value. CallNumber 0 means
// "never fire" (the no-injection point fault spaces may include).
type FaultWire struct {
	Function   string `json:"function"`
	CallNumber int    `json:"callNumber"`
	Errno      string `json:"errno,omitempty"`
	Retval     int    `json:"retval"`
}

// Event is one newline-delimited JSON record on the report pipe.
type Event struct {
	// Kind is one of EventInject, EventBlocks, EventCrash.
	Kind string `json:"e"`
	// Function and Call identify the injection point (EventInject).
	Function string `json:"function,omitempty"`
	Call     int    `json:"call,omitempty"`
	// Stack is the injection-point stack trace, outermost frame first
	// (EventInject) — what AFEX's redundancy clustering compares.
	Stack []string `json:"stack,omitempty"`
	// Blocks is the covered-block set (EventBlocks).
	Blocks []int `json:"blocks,omitempty"`
	// ID is the planted-bug label (EventCrash).
	ID string `json:"id,omitempty"`
	// Exit is the scenario's exit code and Seq the echoed arm-message
	// number (EventDone, worker mode).
	Exit int `json:"exit,omitempty"`
	Seq  int `json:"seq,omitempty"`
}
