// Package controlplane is AFEX's fleet service layer: a long-lived
// session manager that wraps the shared execution engine (core.Engine)
// and the distributed coordinator (rpcnode.Coordinator) behind an
// HTTP/JSON control API, so fault-hunting sessions are submitted,
// watched, and harvested over the wire instead of one-per-process.
//
// The paper's premise is that fault-space exploration is a throughput
// game — AFEX wins by parallelizing scenario execution across machines
// (§6.1/§7.7) — and the control plane is what turns the engine into a
// service that scales that way. It is also the one place a description
// becomes a running session, in three steps:
//
//   - resolve (SessionSpec.Resolve): every check a description can fail,
//     made once and touching no file, socket or process, yielding a
//     Plan — the afex.Options or afex.CoordinatorOptions to run.
//   - open (Manager.Start): afex.NewSession for a local session (the
//     in-process worker pool executes) or afex.NewCoordinatorWithOptions
//     plus an rpcnode endpoint for a coordinator session (remote node
//     managers execute); region, store and engine are the library's.
//   - run: one goroutine drives the Session until its engine is done —
//     budget spent, space drained, deadline passed or Stop called —
//     then seals the result (Done, Result).
//
// The CLI is the first client: `afex explore` and `afex serve --addr`
// fill a SessionSpec from their flags and run it on an in-process
// Manager; `afex submit` posts the same spec to a server. Around that:
//
//   - Manager hosts any number of concurrent Sessions.
//   - Server (server.go) exposes the manager over HTTP: submit a
//     SessionSpec, poll Status (the engine's live Snapshot — arms,
//     clusters, lease waits — plus the store's artifact stats), stream
//     progress via SSE, fetch the journal and the report, stop.
//   - /metrics (metrics.go) exports the same state in Prometheus text
//     exposition format, hand-rolled on stdlib only.
//   - Multi-coordinator hunts: a spec with Peers > 1 makes the session
//     explore region Peer of the space split by faultspace.Union.Shard,
//     so N coordinators × M managers hunt one space in disjoint
//     regions; the assignment is recorded in the state directory's
//     meta.json, so each peer only ever resumes its own region.
package controlplane

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"afex"
	"afex/internal/core"
	"afex/internal/rpcnode"
	"afex/internal/store"
	"afex/internal/trace"
)

// SessionSpec is the JSON body of POST /v1/sessions: everything needed
// to start one exploration session. Durations are strings in Go's
// time.ParseDuration syntax ("30s", "2m"), keeping curl bodies
// human-writable.
type SessionSpec struct {
	// Target is the system under test: a built-in model name
	// ("mysqld", …) or a "cmd:" process spec ("cmd:./crashy {test}").
	Target string `json:"target"`
	// Space is a fault-space description in the Fig. 3 language.
	// Required for cmd: targets; overrides the profiled space for
	// built-in ones.
	Space string `json:"space,omitempty"`
	// Shape (funcs, callLo, callHi, pairs, errnoAxis) is shorthand for
	// the Fig. 3 text of a built-in target's profiled space, the text
	// Resolve parses when Space is empty (zero fields take
	// trace.DefaultShape's).
	trace.Shape
	// Algorithm selects the exploration strategy ("" = fitness).
	Algorithm string `json:"algorithm,omitempty"`
	// Iterations caps executed tests (0 = until the space is exhausted,
	// the time budget passes or the session is stopped).
	Iterations int `json:"iterations,omitempty"`
	// Seed is the RNG seed.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the local worker count (local sessions).
	Workers int `json:"workers,omitempty"`
	// Shards partitions the session's space into per-strategy regions.
	Shards int `json:"shards,omitempty"`
	// Feedback enables §7.4 result-quality feedback.
	Feedback bool `json:"feedback,omitempty"`
	// TestArgs are the process backend's per-test argument rows
	// (row i serves testID i), each row whitespace-split.
	TestArgs []string `json:"testArgs,omitempty"`
	// Timeout is the process backend's per-test wall-clock cap.
	Timeout string `json:"timeout,omitempty"`
	// Procs is the width of the process backend's worker pool.
	Procs int `json:"procs,omitempty"`
	// TimeBudget stops the session after this much wall clock.
	TimeBudget string `json:"timeBudget,omitempty"`
	// StateDir persists the session; JournalFormat picks the journal
	// encoding for a new directory; Resume restores the explorer's
	// search state from the directory's snapshot.
	StateDir      string `json:"stateDir,omitempty"`
	JournalFormat string `json:"journalFormat,omitempty"`
	Resume        bool   `json:"resume,omitempty"`
	// Serve switches the session to coordinator mode: an rpcnode RPC
	// endpoint is served on this address ("host:port", ":0" for an
	// ephemeral port) and remote node managers execute the scenarios.
	Serve string `json:"serve,omitempty"`
	// Peer/Peers place the session in a multi-coordinator hunt: the
	// space is split across Peers coordinators via Union.Shard and this
	// session explores region Peer (0-based). Recorded in meta.json.
	Peer  int `json:"peer,omitempty"`
	Peers int `json:"peers,omitempty"`
}

// Session states.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateStopped = "stopped"
	StateFailed  = "failed"
)

// Status is the wire form of one session's state — the schema of
// GET /v1/sessions/{id}, shared with `afex status` and (via the Store
// field, which is exactly the `afex stats --json` struct) with the
// state-directory inspector.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Mode is "local" (in-process worker pool) or "coordinator"
	// (remote managers over RPC).
	Mode      string `json:"mode"`
	Target    string `json:"target"`
	Backend   string `json:"backend,omitempty"`
	Algorithm string `json:"algorithm"`
	// Addr is the coordinator session's manager RPC address.
	Addr   string `json:"addr,omitempty"`
	Budget int    `json:"budget,omitempty"`
	// Peer/Peers are the session's multi-coordinator shard assignment.
	Peer     int    `json:"peer,omitempty"`
	Peers    int    `json:"peers,omitempty"`
	StateDir string `json:"stateDir,omitempty"`
	// Snapshot is the engine's live tally, arms and lease waits
	// included; Progress is its shared one-line rendering
	// (core.Snapshot.Summary — the same line --progress prints).
	Snapshot core.Snapshot `json:"snapshot"`
	Progress string        `json:"progress"`
	// PerManager counts tests executed by each remote manager
	// (coordinator sessions).
	PerManager map[string]int `json:"perManager,omitempty"`
	Error      string         `json:"error,omitempty"`
	// Store is the session state directory's artifact statistics —
	// the exact struct `afex stats --json` emits (store.Stats). Absent
	// for store-less sessions.
	Store *store.Stats `json:"store,omitempty"`
}

// Manager hosts concurrent exploration sessions. It is safe for
// concurrent use; Server exposes it over HTTP.
type Manager struct {
	mu       sync.Mutex
	sessions []*Session // in submission order
}

// NewManager returns an empty session manager.
func NewManager() *Manager { return &Manager{} }

// Session is one running (or finished) exploration session.
type Session struct {
	// ID is the manager-assigned session identifier ("s1", "s2", …).
	ID string
	// Spec is the submitted spec, normalized (Plan.Spec).
	Spec SessionSpec

	started time.Time

	eng *core.Engine
	// coord and rpc are set for a coordinator session only.
	coord   *rpcnode.Coordinator
	rpc     *rpcnode.Server
	cleanup func() error

	done chan struct{}

	mu       sync.Mutex
	stopped  bool // Stop was called
	state    string
	finished time.Time
	res      *core.ResultSet
	err      error
}

// Plan is a resolved SessionSpec: the spec normalized (algorithm and
// target named; the peer pair zeroed unless Peers > 1) and the library
// options that run it — Coordinator when Spec.Serve is set, Options
// otherwise; the backend follows the target's kind. Hooks no wire spec
// carries (Options.Stop, Observe) may be set before Manager.Start.
type Plan struct {
	Spec        SessionSpec
	Options     afex.Options
	Coordinator afex.CoordinatorOptions
}

// MaxParallel is the most workers or procs a session takes: each is a
// goroutine or a live target process (the warm pool sizes a channel by
// procs up front), and a width past any machine's cores buys nothing.
const MaxParallel = 1024

// Resolve validates the spec and turns it into the Plan that runs it.
// It is pure — no file read, directory made, listener or process
// started — so a spec can be checked (and fuzzed) without being run; an
// "@file" space is the client's to inline before the spec leaves it.
func (spec SessionSpec) Resolve() (*Plan, error) {
	if spec.Algorithm == "" {
		spec.Algorithm = afex.FitnessGuided
	}
	if spec.Resume && spec.StateDir == "" {
		return nil, errors.New("--resume requires --state-dir")
	}
	if spec.Peers <= 1 {
		spec.Peer, spec.Peers = 0, 0
	}
	var err error
	dur := func(name, v string) (d time.Duration) {
		if v == "" || err != nil {
			return 0
		}
		if d, err = time.ParseDuration(v); err != nil {
			err = fmt.Errorf("controlplane: %s: %w", name, err)
		}
		return d
	}
	execTimeout, timeBudget := dur("timeout", spec.Timeout), dur("timeBudget", spec.TimeBudget)
	if err != nil {
		return nil, err
	}

	// A coordinator session's managers execute: a field configuring a
	// local executor is refused by name, never dropped.
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"workers", spec.Workers > 1}, {"procs", spec.Procs != 0}, {"timeout", spec.Timeout != ""}, {"testArgs", len(spec.TestArgs) > 0},
	} {
		if f.set && spec.Serve != "" {
			return nil, fmt.Errorf("controlplane: %s configures a local executor; a coordinator session's managers execute", f.name)
		}
	}
	if n := max(spec.Workers, spec.Procs); n > MaxParallel {
		return nil, fmt.Errorf("controlplane: workers %d, procs %d: each is at most %d", spec.Workers, spec.Procs, MaxParallel)
	}
	var target *afex.System
	var command *afex.CommandSpec
	if strings.HasPrefix(spec.Target, "cmd:") {
		if command, err = afex.ParseCommandSpec(spec.Target); err != nil {
			return nil, err
		}
		for _, row := range spec.TestArgs {
			command.TestArgs = append(command.TestArgs, strings.Fields(row))
		}
		if spec.Space == "" {
			return nil, errors.New("cmd: targets need --space (a Fig. 3 fault-space description, or @file)")
		}
		spec.Target = command.Target()
	} else {
		if target, err = afex.Target(spec.Target); err != nil {
			return nil, err
		}
		spec.Target = target.Name
	}

	// The shape is shorthand for one text; a session's space is always
	// a parsed one.
	text := spec.Space
	if text == "" {
		text = afex.Profile(target).Describe(spec.Shape).String()
	}
	space, err := afex.ParseSpace(text)
	if err != nil {
		if spec.Space == "" { // the text is the shape's, not the client's
			err = fmt.Errorf("controlplane: shape %+v: %w", spec.Shape, err)
		}
		return nil, err
	}
	// An interval of 2^63 values overflows its own length: refuse it
	// while it is still input, not in the search's first random draw.
	for _, sub := range space.Spaces {
		for _, a := range sub.Axes {
			if a.Len() < 1 {
				return nil, fmt.Errorf("controlplane: axis %s of the fault space cannot be indexed (length %d)", a.Name(), a.Len())
			}
		}
	}
	if space.Size() == 0 {
		return nil, errors.New("controlplane: the fault space is empty")
	}

	p := &Plan{Spec: spec}
	if spec.Serve != "" {
		p.Coordinator = afex.CoordinatorOptions{
			TargetName:    spec.Target,
			Space:         space,
			Algorithm:     spec.Algorithm,
			Explore:       afex.ExploreOptions{Seed: spec.Seed},
			Budget:        spec.Iterations,
			Shards:        spec.Shards,
			Feedback:      spec.Feedback,
			TimeBudget:    timeBudget,
			StateDir:      spec.StateDir,
			JournalFormat: spec.JournalFormat,
			Resume:        spec.Resume,
			Peer:          spec.Peer,
			Peers:         spec.Peers,
		}
		return p, nil
	}
	p.Options = afex.Options{
		Target:        target,
		Command:       command,
		ExecTimeout:   execTimeout,
		Procs:         spec.Procs,
		Space:         space,
		Algorithm:     spec.Algorithm,
		Explore:       afex.ExploreOptions{Seed: spec.Seed},
		Iterations:    spec.Iterations,
		Workers:       spec.Workers,
		Shards:        spec.Shards,
		Feedback:      spec.Feedback,
		TimeBudget:    timeBudget,
		StateDir:      spec.StateDir,
		JournalFormat: spec.JournalFormat,
		Resume:        spec.Resume,
		Peer:          spec.Peer,
		Peers:         spec.Peers,
	}
	return p, nil
}

// Submit resolves a spec and starts its session; see Start.
func (m *Manager) Submit(spec SessionSpec) (*Session, error) {
	p, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	return m.Start(p)
}

// Start opens a resolved plan's session, registers it under a fresh ID
// and runs it in the background; watch it via Status, Done, or the
// server's events stream.
func (m *Manager) Start(p *Plan) (*Session, error) {
	s, err := open(p)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	s.ID = fmt.Sprintf("s%d", len(m.sessions)+1)
	m.sessions = append(m.sessions, s)
	m.mu.Unlock()
	go s.run()
	return s, nil
}

// open is the one place a session comes into being, and it builds
// nothing itself: region, store and engine are the library's; a
// coordinator session adds the rpcnode endpoint its managers dial.
func open(p *Plan) (*Session, error) {
	s := &Session{
		Spec:    p.Spec,
		started: time.Now(),
		state:   StateRunning,
		done:    make(chan struct{}),
	}
	var err error
	if p.Spec.Serve == "" {
		if s.eng, s.cleanup, err = afex.NewSession(p.Options); err != nil {
			return nil, err
		}
		return s, nil
	}
	if s.coord, s.cleanup, err = afex.NewCoordinatorWithOptions(p.Coordinator); err != nil {
		return nil, err
	}
	if s.rpc, err = rpcnode.Serve(p.Spec.Serve, s.coord); err != nil {
		s.cleanup()
		return nil, err
	}
	s.eng = s.coord.Engine()
	return s, nil
}

// run drives the session to its seal: a local one by the engine's own
// worker pool, a coordinator by waiting on its engine's Done — its
// iteration budget spent, its space drained by the managers, its time
// budget seen by a lease or fold, or Stop. Then it seals the session:
// result, store error, final state.
func (s *Session) run() {
	var res *core.ResultSet
	if s.coord == nil {
		res = s.eng.RunLocal()
	} else {
		<-s.eng.Done()
		res = s.coord.Result()
		s.rpc.Close()
	}
	err := s.cleanup()
	s.mu.Lock()
	s.res, s.err = res, err
	s.finished = time.Now()
	switch {
	case err != nil:
		s.state = StateFailed
	case s.stopped:
		s.state = StateStopped
	default:
		s.state = StateDone
	}
	s.mu.Unlock()
	close(s.done)
}

// Stop requests the session to end: leasing stops, in-flight tests
// still fold, and the session seals (local mode via RunLocal's return,
// coordinator mode via the engine's Done). Idempotent.
func (s *Session) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.eng.Stop()
}

// Done is closed when the session has sealed its result.
func (s *Session) Done() <-chan struct{} { return s.done }

// Result returns the sealed result set and the store error, or nil
// while the session is still running.
func (s *Session) Result() (*core.ResultSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res, s.err
}

// Addr returns the coordinator session's manager RPC address ("" for
// local sessions).
func (s *Session) Addr() string {
	if s.rpc == nil {
		return ""
	}
	return s.rpc.Addr()
}

// Status assembles the session's wire status. withStore additionally
// reads the state directory's artifact statistics (an O(journal) scan;
// the list endpoint skips it).
func (s *Session) Status(withStore bool) Status {
	snap := s.eng.Snapshot()
	s.mu.Lock()
	state, errMsg := s.state, ""
	if s.err != nil {
		errMsg = s.err.Error()
	}
	s.mu.Unlock()
	st := Status{
		ID:        s.ID,
		State:     state,
		Mode:      "local",
		Target:    s.Spec.Target,
		Backend:   s.eng.Backend(),
		Algorithm: s.Spec.Algorithm,
		Addr:      s.Addr(),
		Budget:    s.Spec.Iterations,
		Peer:      s.Spec.Peer,
		Peers:     s.Spec.Peers,
		StateDir:  s.Spec.StateDir,
		Snapshot:  snap,
		Progress:  snap.Summary(),
		Error:     errMsg,
	}
	if s.coord != nil {
		st.Mode = "coordinator"
		st.PerManager = s.coord.Snapshot().PerManager
	}
	if withStore && s.Spec.StateDir != "" {
		if stats, err := store.ReadStats(s.Spec.StateDir); err == nil {
			st.Store = stats
		}
	}
	return st
}

// rate returns the session's scenarios/second so far (metrics).
func (s *Session) rate(snap core.Snapshot) float64 {
	s.mu.Lock()
	end := s.finished
	s.mu.Unlock()
	if end.IsZero() {
		end = time.Now()
	}
	elapsed := end.Sub(s.started).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(snap.Executed) / elapsed
}

// Get returns a session by ID.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.sessions {
		if s.ID == id {
			return s, true
		}
	}
	return nil, false
}

// List returns every session in submission order.
func (m *Manager) List() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.sessions)
}

// StopAll stops every session and waits for each to seal — the
// manager's shutdown path.
func (m *Manager) StopAll() {
	for _, s := range m.List() {
		s.Stop()
	}
	for _, s := range m.List() {
		<-s.Done()
	}
}
