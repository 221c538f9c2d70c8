// Package controlplane is AFEX's fleet service layer: a long-lived
// session manager that wraps the shared execution engine (core.Engine)
// and the distributed coordinator (rpcnode.Coordinator) behind an
// HTTP/JSON control API, so fault-hunting sessions are submitted,
// watched, and harvested over the wire instead of one-per-process.
//
// The paper's premise is that fault-space exploration is a throughput
// game — AFEX wins by parallelizing scenario execution across machines
// (§6.1/§7.7) — and the control plane is what turns the engine into a
// service that scales that way:
//
//   - Manager hosts any number of concurrent Sessions, each a full
//     exploration session: local (the in-process worker pool runs the
//     scenarios) or coordinator (an rpcnode RPC endpoint is served and
//     remote node managers execute).
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
	"fmt"
	"strings"
	"sync"
	"time"

	"afex"
	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/dsl"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
	"afex/internal/rpcnode"
	"afex/internal/store"
	"afex/internal/targets"
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
	// Backend selects the execution backend ("model", "process");
	// empty infers it from the target's kind. Local sessions only —
	// coordinator sessions execute on their remote managers.
	Backend string `json:"backend,omitempty"`
	// Space is a fault-space description in the Fig. 3 language.
	// Required for cmd: targets; overrides the profiled space for
	// built-in ones.
	Space string `json:"space,omitempty"`
	// Funcs/CallLo/CallHi shape the profiled space of a built-in
	// target when Space is empty (defaults 19/1/10).
	Funcs  int `json:"funcs,omitempty"`
	CallLo int `json:"callLo,omitempty"`
	CallHi int `json:"callHi,omitempty"`
	// Algorithm selects the exploration strategy ("" = fitness).
	Algorithm string `json:"algorithm,omitempty"`
	// Iterations caps executed tests (0 = until the space is
	// exhausted; coordinator sessions with 0 run until stopped).
	Iterations int `json:"iterations,omitempty"`
	// Seed is the RNG seed.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the local worker count (local sessions).
	Workers int `json:"workers,omitempty"`
	// Shards partitions the session's space into per-strategy regions.
	Shards int `json:"shards,omitempty"`
	// Feedback enables §7.4 result-quality feedback.
	Feedback bool `json:"feedback,omitempty"`
	// Prefetch enables the engine's asynchronous candidate prefetch
	// ring (core.Config.PrefetchDepth): positive fixes the ring
	// capacity, -1 sizes it adaptively, at 0 no generator runs.
	Prefetch int `json:"prefetch,omitempty"`
	// TestArgs are the process backend's per-test argument rows
	// (row i serves testID i), each row whitespace-split.
	TestArgs []string `json:"testArgs,omitempty"`
	// Timeout is the process backend's per-test wall-clock cap.
	Timeout string `json:"timeout,omitempty"`
	// Procs/TestsPerProc tune the process backend's worker pool.
	Procs        int `json:"procs,omitempty"`
	TestsPerProc int `json:"testsPerProc,omitempty"`
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
	// LeaseTimeout re-leases tasks never reported back (coordinator
	// and lease-tracking local sessions).
	LeaseTimeout string `json:"leaseTimeout,omitempty"`
	// Heartbeat enables heartbeat-driven manager liveness on a
	// coordinator session: a manager silent for HeartbeatMisses beats
	// of this interval has its leases expired immediately.
	Heartbeat       string `json:"heartbeat,omitempty"`
	HeartbeatMisses int    `json:"heartbeatMisses,omitempty"`
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
	seq      int
	sessions map[string]*Session
	order    []string
}

// NewManager returns an empty session manager.
func NewManager() *Manager {
	return &Manager{sessions: make(map[string]*Session)}
}

// Session is one running (or finished) exploration session.
type Session struct {
	// ID is the manager-assigned session identifier ("s1", "s2", …).
	ID string
	// Spec is the submitted spec, normalized.
	Spec SessionSpec

	mode    string
	backend string
	budget  int
	started time.Time

	eng     *core.Engine
	coord   *rpcnode.Coordinator
	rpc     *rpcnode.Server
	cleanup func() error

	stopOnce sync.Once
	stopping chan struct{}
	done     chan struct{}

	mu       sync.Mutex
	state    string
	finished time.Time
	res      *core.ResultSet
	err      error
}

// parseDur parses an optional duration field.
func parseDur(field, v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("controlplane: %s: %w", field, err)
	}
	return d, nil
}

// buildSpace resolves a spec's fault space: the DSL description when
// given, the target's profiled space otherwise.
func buildSpace(spec *SessionSpec, target *prog.Program) (*faultspace.Union, error) {
	if spec.Space != "" {
		d, err := dsl.Parse(spec.Space)
		if err != nil {
			return nil, err
		}
		return d.Build(), nil
	}
	if target == nil {
		return nil, fmt.Errorf("controlplane: cmd: targets need a space description")
	}
	funcs, lo, hi := spec.Funcs, spec.CallLo, spec.CallHi
	if funcs <= 0 {
		funcs = 19
	}
	if hi <= 0 {
		lo, hi = 1, 10
	}
	return trace.Profile(target).BuildSpace(funcs, lo, hi), nil
}

// Submit validates a spec, starts its session, and registers it under a
// fresh ID. The session runs in the background; watch it via Status,
// Done, or the server's events stream.
func (m *Manager) Submit(spec SessionSpec) (*Session, error) {
	s, err := m.build(spec)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.seq++
	s.ID = fmt.Sprintf("s%d", m.seq)
	m.sessions[s.ID] = s
	m.order = append(m.order, s.ID)
	m.mu.Unlock()
	s.start()
	return s, nil
}

// build constructs the session without starting or registering it.
func (m *Manager) build(spec SessionSpec) (*Session, error) {
	if spec.Target == "" {
		return nil, fmt.Errorf("controlplane: spec has no target")
	}
	if spec.Algorithm == "" {
		spec.Algorithm = "fitness"
	}
	execTimeout, err := parseDur("timeout", spec.Timeout)
	if err != nil {
		return nil, err
	}
	timeBudget, err := parseDur("timeBudget", spec.TimeBudget)
	if err != nil {
		return nil, err
	}
	leaseTimeout, err := parseDur("leaseTimeout", spec.LeaseTimeout)
	if err != nil {
		return nil, err
	}
	heartbeat, err := parseDur("heartbeat", spec.Heartbeat)
	if err != nil {
		return nil, err
	}

	// Target resolution mirrors the CLI: built-in model targets load
	// in-process, cmd: specs describe a process-backend fixture.
	var target *prog.Program
	var command *backend.CommandSpec
	if strings.HasPrefix(spec.Target, "cmd:") {
		if command, err = backend.ParseSpec(spec.Target); err != nil {
			return nil, err
		}
		for _, row := range spec.TestArgs {
			command.TestArgs = append(command.TestArgs, strings.Fields(row))
		}
	} else {
		if target, err = targets.ByName(spec.Target); err != nil {
			return nil, err
		}
	}
	space, err := buildSpace(&spec, target)
	if err != nil {
		return nil, err
	}
	if spec.Peers <= 1 {
		spec.Peer, spec.Peers = 0, 0
	}

	s := &Session{
		Spec:     spec,
		budget:   spec.Iterations,
		state:    StateRunning,
		stopping: make(chan struct{}),
		done:     make(chan struct{}),
		cleanup:  func() error { return nil },
	}

	if spec.Serve != "" {
		// Coordinator mode: serve the rpcnode protocol, remote managers
		// execute. The engine runs nothing locally, and the session is the
		// one `afex serve` builds: peer region, store, lease and heartbeat
		// wiring included.
		s.mode = "coordinator"
		coord, cleanup, err := afex.NewCoordinatorWithOptions(afex.CoordinatorOptions{
			TargetName:      spec.Target,
			Space:           space,
			Algorithm:       spec.Algorithm,
			Explore:         explore.Config{Seed: spec.Seed},
			Budget:          spec.Iterations,
			Shards:          spec.Shards,
			LeaseTimeout:    leaseTimeout,
			Prefetch:        spec.Prefetch,
			HeartbeatEvery:  heartbeat,
			HeartbeatMisses: spec.HeartbeatMisses,
			StateDir:        spec.StateDir,
			JournalFormat:   spec.JournalFormat,
			Resume:          spec.Resume,
			Peer:            spec.Peer,
			Peers:           spec.Peers,
		})
		if err != nil {
			return nil, err
		}
		s.cleanup = cleanup
		srv, err := rpcnode.Serve(spec.Serve, coord)
		if err != nil {
			s.cleanup()
			return nil, err
		}
		s.coord, s.rpc, s.eng = coord, srv, coord.Engine()
		return s, nil
	}

	// Peer sharding: a local session owns one disjoint region of the
	// space, carved by the same Union.Shard local sharded sessions use.
	if spec.Peers > 1 {
		if spec.Peer < 0 || spec.Peer >= spec.Peers {
			return nil, fmt.Errorf("controlplane: peer %d out of range for %d peers", spec.Peer, spec.Peers)
		}
		regions := space.Shard(spec.Peers)
		if spec.Peer >= len(regions) {
			return nil, fmt.Errorf("controlplane: space splits into only %d regions, peer %d has none",
				len(regions), spec.Peer)
		}
		space = regions[spec.Peer]
	}

	// Local mode: the engine's own worker pool executes.
	s.mode = "local"
	cfg := core.Config{
		Target:        target,
		Backend:       spec.Backend,
		Command:       command,
		ExecTimeout:   execTimeout,
		Procs:         spec.Procs,
		TestsPerProc:  spec.TestsPerProc,
		Space:         space,
		Algorithm:     spec.Algorithm,
		Explore:       explore.Config{Seed: spec.Seed},
		Iterations:    spec.Iterations,
		Workers:       spec.Workers,
		Shards:        spec.Shards,
		Feedback:      spec.Feedback,
		PrefetchDepth: spec.Prefetch,
		TimeBudget:    timeBudget,
		LeaseTimeout:  leaseTimeout,
		Resume:        spec.Resume,
		JournalFormat: spec.JournalFormat,
	}
	targetName := spec.Target
	if command != nil {
		targetName = command.Target()
	}
	if spec.StateDir != "" {
		st, err := store.OpenOptions(spec.StateDir, store.Options{
			Format:     spec.JournalFormat,
			TailResume: spec.Resume,
			Peer:       spec.Peer,
			Peers:      spec.Peers,
		})
		if err != nil {
			return nil, err
		}
		if err := st.AttachNamed(&cfg, targetName); err != nil {
			st.Close()
			return nil, err
		}
		s.cleanup = st.Close
	}
	eng, err := core.NewEngine(cfg, nil)
	if err != nil {
		s.cleanup()
		return nil, err
	}
	s.eng = eng
	s.backend = eng.Backend()
	return s, nil
}

// start launches the session's run loop.
func (s *Session) start() {
	s.started = time.Now()
	if s.mode == "coordinator" {
		go s.runCoordinator()
		return
	}
	go func() {
		res := s.eng.RunLocal()
		s.finish(res, s.cleanup())
	}()
}

// runCoordinator watches a coordinator session until its budget is
// consumed or Stop is called, then seals it. Sessions with no budget
// run until stopped — the coordinator cannot tell a drained space from
// managers that have yet to connect.
func (s *Session) runCoordinator() {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.stopping:
		case <-t.C:
			if s.budget <= 0 || s.eng.Snapshot().Executed < s.budget {
				continue
			}
		}
		s.eng.Stop()
		res := s.coord.Result()
		s.rpc.Close()
		s.finish(res, s.cleanup())
		return
	}
}

// finish seals the session: result, error, final state.
func (s *Session) finish(res *core.ResultSet, cleanupErr error) {
	s.mu.Lock()
	s.res, s.err = res, cleanupErr
	s.finished = time.Now()
	switch {
	case cleanupErr != nil:
		s.state = StateFailed
	case s.stopRequested():
		s.state = StateStopped
	default:
		s.state = StateDone
	}
	s.mu.Unlock()
	close(s.done)
}

func (s *Session) stopRequested() bool {
	select {
	case <-s.stopping:
		return true
	default:
		return false
	}
}

// Stop requests the session to end: leasing stops, in-flight tests
// still fold, and the session seals (local mode via RunLocal's return,
// coordinator mode via the watcher). Idempotent.
func (s *Session) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopping)
		s.eng.Stop()
	})
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
		Mode:      s.mode,
		Target:    s.Spec.Target,
		Backend:   s.backend,
		Algorithm: s.Spec.Algorithm,
		Addr:      s.Addr(),
		Budget:    s.budget,
		Peer:      s.Spec.Peer,
		Peers:     s.Spec.Peers,
		StateDir:  s.Spec.StateDir,
		Snapshot:  snap,
		Progress:  snap.Summary(),
		Error:     errMsg,
	}
	if s.coord != nil {
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
	s, ok := m.sessions[id]
	return s, ok
}

// List returns every session in submission order.
func (m *Manager) List() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.sessions[id])
	}
	return out
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
