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
//     process dies, and the covered-block set in "blocks" events flushed
//     on orderly exit.
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

import (
	"encoding/json"
	"strconv"
)

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

// # Canonical lines
//
// Both ends write the bytes encoding/json gives each line's value
// (appendEvent; appendPlan in internal/backend) and read that one shape
// with a byte scanner instead of reflection:
//
//	{"e":K[,"function":S][,"call":N][,"stack":[S,…]][,"blocks":[N,…]][,"id":S][,"exit":N][,"seq":N]}
//	{"testID":N[,"seq":N],"faults":[{"function":S,"callNumber":N[,"errno":S],"retval":N},…]}
//
// in that key order with no whitespace, where S is a string AppendString
// writes verbatim and N an int without a leading zero. Any other line —
// whitespace, escapes, non-ASCII, another key order or case, null, an
// empty stack or blocks — decodes through encoding/json, so a shim or a
// supervisor written elsewhere still interoperates.
//
// A "blocks" line carries at most BlocksPerLine ids, under 43 KiB
// whatever the ids: a larger coverage set goes out as several "blocks"
// events, in the scenario's one write, and the supervisor, which skips
// a report line past 64 KiB, folds their union.

// appendEvent renders ev as the line json.Encoder writes for it: same
// field order, same omissions, same bytes.
func appendEvent(b []byte, ev *Event) []byte {
	b = AppendString(append(b, `{"e":`...), ev.Kind)
	if ev.Function != "" {
		b = AppendString(append(b, `,"function":`...), ev.Function)
	}
	if ev.Call != 0 {
		b = strconv.AppendInt(append(b, `,"call":`...), int64(ev.Call), 10)
	}
	if len(ev.Stack) > 0 {
		b = append(b, `,"stack":[`...)
		for i, fr := range ev.Stack {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendString(b, fr)
		}
		b = append(b, ']')
	}
	if len(ev.Blocks) > 0 {
		b = append(b, `,"blocks":[`...)
		for i, blk := range ev.Blocks {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(blk), 10)
		}
		b = append(b, ']')
	}
	if ev.ID != "" {
		b = AppendString(append(b, `,"id":`...), ev.ID)
	}
	if ev.Exit != 0 {
		b = strconv.AppendInt(append(b, `,"exit":`...), int64(ev.Exit), 10)
	}
	if ev.Seq != 0 {
		b = strconv.AppendInt(append(b, `,"seq":`...), int64(ev.Seq), 10)
	}
	return append(b, '}', '\n')
}

// AppendString appends s quoted as encoding/json quotes it: verbatim
// when every byte is printable ASCII that JSON and HTML leave alone,
// through json.Marshal (escapes, U+FFFD for invalid UTF-8) otherwise.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !verbatim(s[i]) {
			q, _ := json.Marshal(s) // cannot fail for a string
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// verbatim reports whether encoding/json writes c as itself inside a
// string: printable ASCII that JSON and HTML leave alone.
func verbatim(c byte) bool {
	return ' ' <= c && c <= '~' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// BlocksPerLine bounds the ids of one "blocks" event line.
const BlocksPerLine = 2048

// DecodeEvent decodes a report line into ev as json.Unmarshal does into
// a zero Event, except that an empty Blocks may keep its backing array,
// and reports whether the line was canonical (read without reflection).
func DecodeEvent(line []byte, ev *Event) (canonical bool, err error) {
	*ev = Event{Blocks: ev.Blocks[:0]}
	s := scanner{b: line, ok: true}
	s.want(`{"e":`)
	ev.Kind = eventKind(s.str())
	if s.opt(`,"function":`) {
		ev.Function = string(s.str())
	}
	if s.opt(`,"call":`) {
		ev.Call = s.int()
	}
	if s.opt(`,"stack":[`) {
		for ok := true; ok; ok = s.opt(",") {
			ev.Stack = append(ev.Stack, string(s.str()))
		}
		s.want("]")
	}
	if s.opt(`,"blocks":[`) {
		for ok := true; ok; ok = s.opt(",") {
			ev.Blocks = append(ev.Blocks, s.int())
		}
		s.want("]")
	}
	if s.opt(`,"id":`) {
		ev.ID = string(s.str())
	}
	if s.opt(`,"exit":`) {
		ev.Exit = s.int()
	}
	if s.opt(`,"seq":`) {
		ev.Seq = s.int()
	}
	if s.end() {
		return true, nil
	}
	*ev = Event{Blocks: ev.Blocks[:0]}
	return false, json.Unmarshal(line, ev)
}

// eventKind is b as a string, allocating only for an unknown kind.
func eventKind(b []byte) string {
	for _, k := range [...]string{EventBlocks, EventDone, EventInject, EventCrash, EventReady} {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

// A PlanDecoder decodes arm lines and AFEX_PLAN values, interning up to
// 1,024 function and errno names so a recurring one allocates nothing.
// The zero value is ready; it is not safe for concurrent use.
type PlanDecoder struct{ names map[string]string }

func (d *PlanDecoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.names == nil {
		d.names = make(map[string]string)
	}
	if len(d.names) < 1024 {
		d.names[s] = s
	}
	return s
}

// Decode decodes line into p as json.Unmarshal does into a zero
// PlanWire, reusing p.Faults' array if the line is canonical, and
// reports whether it was.
func (d *PlanDecoder) Decode(line []byte, p *PlanWire) (canonical bool, err error) {
	faults := p.Faults[:0]
	if faults == nil {
		faults = []FaultWire{}
	}
	*p = PlanWire{}
	s := scanner{b: line, ok: true}
	s.want(`{"testID":`)
	p.TestID = s.int()
	if s.opt(`,"seq":`) {
		p.Seq = s.int()
	}
	s.want(`,"faults":[`)
	for more := s.opt(`{"function":`); more; more = s.opt(`,{"function":`) {
		var f FaultWire
		f.Function = d.intern(s.str())
		s.want(`,"callNumber":`)
		f.CallNumber = s.int()
		if s.opt(`,"errno":`) {
			f.Errno = d.intern(s.str())
		}
		s.want(`,"retval":`)
		f.Retval = s.int()
		s.want("}")
		faults = append(faults, f)
	}
	s.want("]")
	if s.end() {
		p.Faults = faults
		return true, nil
	}
	*p = PlanWire{}
	return false, json.Unmarshal(line, p)
}

// scanner reads one line in the canonical shape; the first mismatch
// clears ok, and every read after it yields zero values.
type scanner struct {
	b  []byte
	i  int
	ok bool
}

// opt consumes lit if the line continues with it.
func (s *scanner) opt(lit string) bool {
	if s.ok && len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// want consumes lit, which the line must continue with.
func (s *scanner) want(lit string) {
	s.ok = s.opt(lit)
}

// str consumes a string AppendString writes verbatim, and returns it.
func (s *scanner) str() []byte {
	if s.opt(`"`) {
		start := s.i
		for s.i < len(s.b) && verbatim(s.b[s.i]) {
			s.i++
		}
		if s.opt(`"`) {
			return s.b[start : s.i-1]
		}
	}
	s.ok = false
	return nil
}

// int consumes an integer in int's range, with no leading zero.
func (s *scanner) int() int {
	neg, n, digits := s.opt("-"), uint64(0), 0
	for ; s.ok && s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' && digits < 19 && (digits == 0 || n > 0); s.i++ {
		n, digits = n*10+uint64(s.b[s.i]-'0'), digits+1
	}
	if neg {
		n = -n
	}
	// n must survive the trip through int, with the sign it was given.
	if digits == 0 || uint64(int(n)) != n || (n != 0 && int(n) < 0 != neg) {
		s.ok = false
		return 0
	}
	return int(n)
}

// end consumes the closing brace and a newline, if any, and reports
// whether that was the whole line and all of it canonical.
func (s *scanner) end() bool {
	s.want("}")
	s.opt("\n")
	return s.ok && s.i == len(s.b)
}
