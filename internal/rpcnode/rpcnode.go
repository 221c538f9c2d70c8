// Package rpcnode implements AFEX's distributed mode: the explorer runs
// in one process and node managers run anywhere reachable over TCP,
// mirroring the cluster deployment of §6.1/§7.7 ("we have run AFEX on up
// to 14 nodes in Amazon EC2 and verified that the number of tests
// performed scales linearly").
//
// The protocol (batch.go) is batched net/rpc with a compact wire format
// (wire.go). How many managers one coordinator keeps busy is §7.7's
// question, which experiments.Scalability answers on the engine itself.
//
// The coordinator is a thin protocol adapter over the shared execution
// engine (core.Engine): it owns only wire concerns — lease sequence
// numbers, manager liveness, per-manager accounting, scenario
// marshalling — while candidate leasing, impact scoring, coverage
// accounting, redundancy clustering and stop logic are the engine's, exactly the same code the
// in-process worker pool runs. A distributed session therefore produces
// the same full core.ResultSet (Result method) a local one does. A
// manager runs the engine's worker loop (core.Work) against a lease
// source over the wire; leasing one task at a time is the same loop at
// Manager.Batch = 1.
//
// Liveness is the coordinator's alone, and always on. It announces a
// beat interval (DefaultHeartbeat) in the Hello reply; a manager beats
// on it while it works, and every call it makes counts as a beat. A
// manager silent for missedBeats beats is declared dead: its leases
// leave the lease table, in seq order, for a queue that NextBatch hands
// out before it asks the engine for fresh candidates, and a report it
// sends later names seqs the coordinator no longer knows, so it folds
// nothing. Each candidate therefore folds once, and the engine, which
// trusts its executors, tracks no lease of its own. The reaper runs
// inside the RPC paths, not on a timer: a dead manager is noticed at
// the next call of any other. While any lease is out, a manager that
// finds nothing to lease is told to retry, not that the session is
// done: the lease may yet come back.
package rpcnode

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"slices"
	"sync"
	"time"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/dsl"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/prog"
)

// Stats summarizes a distributed session.
type Stats struct {
	Executed int
	Failed   int
	Crashed  int
	Hung     int
	Injected int
	// PerManager counts tests executed by each manager.
	PerManager map[string]int
}

// Coordinator is the RPC service (Serve registers it as is) adapting
// remote node managers to the shared execution engine. It is safe for
// concurrent RPC access.
type Coordinator struct {
	engine *core.Engine
	space  *faultspace.Union
	// axisNames caches each subspace's axis names for the slice-based
	// scenario path (no per-lease map allocation).
	axisNames [][]string

	// plugin converts leased scenarios back into injection plans when
	// folding results, so persistent coordinators journal a replayable
	// Plan (managers report outcomes, not plans). Zero value is ready.
	plugin inject.Plugin

	mu     sync.Mutex
	seq    int
	leases map[int]lease
	// relet holds the leases of managers declared dead, in seq order,
	// for NextBatch to hand out before fresh candidates; leasing counts
	// the NextBatch calls between asking the engine for candidates and
	// entering them in leases, whose work is out too. progress is what
	// an idle NextBatch waits on (wakeLocked), nil while none does.
	relet      []lease
	leasing    int
	progress   chan struct{}
	perManager map[string]int
	// stacks interns reported injection stacks by content hash: a
	// manager ships a stack's frames once and the 8-byte hash
	// thereafter (ResultWire.StackHash). Content addressing lets all
	// managers share one table. Lazily allocated.
	stacks map[uint64][]string
	// covs interns decoded coverage sets by their wire encoding (see
	// coverage, wire.go); at most maxInternedSets.
	covs map[string]prog.Outcome
	// idle counts each manager's consecutive empty polls, growing the
	// suggested Retry backoff (retryAfter); a successful lease resets
	// it. Lazily allocated.
	idle map[string]int
	// lastBeat is the beat table: each live manager's most recent
	// contact, on now (the wall clock; tests set their own).
	lastBeat map[string]time.Time
	now      func() time.Time
}

// DefaultHeartbeat is the beat interval the coordinator announces in
// its Hello reply, and the one a manager uses when the reply announces
// none it can use.
const DefaultHeartbeat = time.Second

// missedBeats is how many beats a manager may miss before the
// coordinator declares it dead and hands its leases to others.
const missedBeats = 3

// NewCoordinatorConfig builds a coordinator over a new engine of cfg —
// at least a Space, and Iterations (0 = until the explorer exhausts).
// The rest serves bigger sessions, most importantly persistent
// coordinators: a Config carrying
// Store/Seen/Restore (wired by store.Attach) makes a restarted
// `afex serve` continue the same journaled session, with prior scenario
// keys never handed to managers again. cfg.Space must be set; a nil ex
// has the engine compose the exploration stack from cfg.Algorithm,
// cfg.Shards and cfg.Explore, exactly as a local session's does. A
// non-nil impact scores an outcome by its newly covered blocks in place
// of cfg.Impact.Score.
func NewCoordinatorConfig(cfg core.Config, ex explore.Explorer, impact func(prog.Outcome, int) float64) (*Coordinator, error) {
	space := cfg.Space
	if impact != nil {
		cfg.Impact.Score = func(out prog.Outcome, newBlocks int, _ inject.Plan, _ int) float64 {
			return impact(out, newBlocks)
		}
	}
	engine, err := core.NewEngine(cfg, ex)
	if err != nil {
		return nil, fmt.Errorf("rpcnode: %w", err)
	}
	c := &Coordinator{
		engine:     engine,
		space:      space,
		leases:     make(map[int]lease),
		perManager: make(map[string]int),
		covs:       make(map[string]prog.Outcome),
		lastBeat:   make(map[string]time.Time),
		now:        time.Now,
	}
	if space != nil {
		c.axisNames = make([][]string, len(space.Spaces))
		for i := range space.Spaces {
			c.axisNames[i] = dsl.AxisNames(space, i)
		}
	}
	return c, nil
}

// lease is one outstanding task: the candidate plus its formatted
// scenario and axis values (kept so the report path re-marshals and
// re-parses nothing) and the manager holding it (so a dead manager's
// leases can be handed to others).
type lease struct {
	cand     explore.Candidate
	scenario string
	vals     []string
	manager  string
}

// foldInput assembles the engine fold inputs from a retired lease and
// the reported outcome. The armed plan is rebuilt from the lease's
// axis values (the wire carries only the outcome) so a persistent
// session's journal can replay the failure without re-searching the
// space — straight from coordinates, no scenario re-parse.
func (c *Coordinator) foldInput(ls lease, testID int, skipped bool, out prog.Outcome, bname, exitStatus string, durNS int64) core.ExecutedTest {
	rec := core.Record{
		Point:      ls.cand.Point,
		Scenario:   ls.scenario,
		TestID:     testID,
		Skipped:    skipped,
		Backend:    bname,
		ExitStatus: exitStatus,
		Duration:   time.Duration(durNS),
	}
	if !skipped {
		if _, plan, err := c.plugin.ConvertValues(c.axisNames[ls.cand.Point.Sub], ls.vals); err == nil {
			rec.Plan = plan
		}
	}
	return core.ExecutedTest{C: ls.cand, Rec: rec, Out: out}
}

// SetTargetName labels the session's result set with the system under
// test, which only the managers load.
func (c *Coordinator) SetTargetName(name string) {
	c.engine.SetTargetName(name)
}

// Heartbeat records a manager liveness beat (RPC method). Managers send
// it on the interval the Hello reply announces; like every call, it also
// reaps the managers that have gone silent.
func (c *Coordinator) Heartbeat(managerID string, ack *bool) error {
	c.noteManager(managerID)
	*ack = true
	return nil
}

// noteManager marks a manager live, reaps every manager silent for more
// than missedBeats beats — its leases move, in seq order, to relet —
// and returns how many managers are live.
func (c *Coordinator) noteManager(id string) int {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastBeat[id] = now
	dead := false
	for m, t := range c.lastBeat {
		if now.Sub(t) > missedBeats*DefaultHeartbeat {
			delete(c.lastBeat, m)
			dead = true
		}
	}
	if !dead {
		return len(c.lastBeat)
	}
	var seqs []int
	for seq, ls := range c.leases {
		if _, live := c.lastBeat[ls.manager]; !live {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		c.relet = append(c.relet, c.leases[seq])
		delete(c.leases, seq)
	}
	if len(seqs) > 0 {
		c.wakeLocked()
	}
	return len(c.lastBeat)
}

// Engine returns the coordinator's underlying execution engine, for
// callers needing the full core.Snapshot — arms, pending leases, pool
// recycles — rather than the wire-level Stats (the control plane's
// status endpoint does).
func (c *Coordinator) Engine() *core.Engine { return c.engine }

// Snapshot returns the session statistics.
func (c *Coordinator) Snapshot() Stats {
	snap := c.engine.Snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Executed:   snap.Executed,
		Failed:     snap.Failed,
		Crashed:    snap.Crashed,
		Hung:       snap.Hung,
		Injected:   snap.Injected,
		PerManager: make(map[string]int, len(c.perManager)),
	}
	for k, v := range c.perManager {
		st.PerManager[k] = v
	}
	return st
}

// Result seals and returns the session's full result set — records,
// redundancy clusters, crash identities, the synopsis — identical in
// shape to what a local core.Run produces. Call it once the managers are
// done (it fixes Elapsed on first call).
func (c *Coordinator) Result() *core.ResultSet {
	return c.engine.Finish()
}

// Server serves a Coordinator over TCP.
type Server struct {
	Coordinator *Coordinator
	lis         net.Listener
	srv         *rpc.Server
	wg          sync.WaitGroup
}

// Serve starts serving on addr ("host:port", ":0" for an ephemeral port)
// and returns immediately. Use Addr for the bound address and Close to
// stop.
func Serve(addr string, c *Coordinator) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcnode: listen %s: %w", addr, err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Coordinator", c); err != nil {
		lis.Close()
		return nil, err
	}
	s := &Server{Coordinator: c, lis: lis, srv: srv}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			go srv.ServeConn(conn)
		}
	}()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops accepting connections. In-flight RPCs may still complete.
func (s *Server) Close() error {
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

// Manager is a remote node manager: it connects to a coordinator, leases
// tasks, executes them on its execution backend — its local copy of the
// program model, or real supervised subprocesses — and reports results,
// until the coordinator says Done.
type Manager struct {
	ID     string
	Target *prog.Program
	// Batch is how many tests one NextBatch round trip leases: 0 lets
	// the coordinator size each batch from measured test latency, >1
	// fixes it. At 1 the manager runs one worker loop and stops
	// pipelining — it requests the next task only after reporting the
	// current one, so it never holds two leases and a lone manager drives
	// the explorer in strict lease → run → report alternation.
	Batch int
	// Concurrency is how many copies of the worker loop run against the
	// coordinator, each executing its own lease. 0 sizes it from the
	// backend's own pool width (process backends' Config.Procs) or
	// GOMAXPROCS.
	Concurrency int

	client      *rpc.Client
	runner      backend.Runner
	backendName string
	// axisNames holds the coordinator's per-subspace axis names,
	// delivered once in the Hello reply so leased tasks convert from
	// coordinates.
	axisNames [][]string
	// beat is the interval between the Coordinator.Heartbeat calls
	// RunUntilDone sends alongside the work loop, so the coordinator can
	// tell a dead manager from one grinding through a slow test: the
	// Hello reply's, clamped (see beatOf).
	beat       time.Duration
	sentStacks map[uint64]bool
	// encoded caches the wire bytes of each distinct coverage set run
	// (see encodeCoverage; the worker loops share it under encMu).
	encMu   sync.Mutex
	encoded map[uint64][]byte
}

// Dial connects a manager that executes on the model backend against
// its local copy of the target — the classic §6.1 deployment.
func Dial(addr, id string, target *prog.Program) (*Manager, error) {
	return DialBackend(addr, id, backend.Model, backend.Config{Target: target})
}

// DialBackend connects a manager that executes leased tests on any
// registered execution backend — e.g. name "process" with a Command
// spec runs every leased scenario as a real supervised subprocess on
// the manager's machine. Unknown backend names fail with the registry's
// error listing every valid choice.
func DialBackend(addr, id, name string, bcfg backend.Config) (*Manager, error) {
	r, err := backend.New(name, bcfg)
	if err != nil {
		return nil, fmt.Errorf("rpcnode: %w", err)
	}
	if name == "" {
		name = backend.Model // the registry's own default
	}
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("rpcnode: dial %s: %w", addr, err)
	}
	m := &Manager{
		ID:          id,
		Target:      bcfg.Target,
		client:      client,
		runner:      r,
		backendName: name,
		sentStacks:  make(map[uint64]bool),
		encoded:     make(map[uint64][]byte),
	}
	if err := m.hello(); err != nil {
		m.Close()
		return nil, fmt.Errorf("rpcnode: dial %s: %w", addr, err)
	}
	return m, nil
}

// Close releases the manager's connection and its execution backend.
func (m *Manager) Close() error {
	err := m.client.Close()
	if m.runner != nil {
		if cerr := m.runner.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// startHeartbeat beats Coordinator.Heartbeat on the announced interval
// until the returned stop function is called. net/rpc clients multiplex
// concurrent calls, so beats ride the work loop's connection. Beat
// errors are ignored: transport failures surface on the work loop.
func (m *Manager) startHeartbeat() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(m.beat)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				var ack bool
				_ = m.client.Call("Coordinator.Heartbeat", m.ID, &ack)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// RunUntilDone runs Concurrency copies of the engine's worker loop
// (core.Work) against the coordinator until it reports completion,
// heartbeating in the background, and returns the number of tests the
// coordinator acknowledged folding from this manager.
func (m *Manager) RunUntilDone() (int, error) {
	stopBeat := m.startHeartbeat()
	defer stopBeat()
	src := &remote{m: m, tasks: make(map[string][]TaskWire)}
	exec := &core.BackendExecutor{Runner: m.runner, Convert: src.convert}
	var wg sync.WaitGroup
	for i := 0; i < m.loops(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			core.Work(src, exec, m.Batch, src.observe)
		}()
	}
	wg.Wait()
	if errors.Is(src.err, rpc.ErrShutdown) || errors.Is(src.err, io.ErrUnexpectedEOF) {
		// A coordinator that closed between calls or mid-call is a normal
		// way to end: a session seals at the fold of its last report, and
		// a process that exits then may take that report's ack with it.
		return src.reported, nil
	}
	return src.reported, src.err
}
