// Package rpcnode implements AFEX's distributed mode: the explorer runs
// in one process and node managers run anywhere reachable over TCP,
// mirroring the cluster deployment of §6.1/§7.7 ("we have run AFEX on up
// to 14 nodes in Amazon EC2 and verified that the number of tests
// performed scales linearly").
//
// The protocol (batch.go) is batched net/rpc over the package's own
// frame codec (codec.go) with compact block sets and interned stacks
// (wire.go). The coordinator is a thin adapter over the shared execution
// engine (core.Engine) and one lease book (LeaseBook). The book owns the
// lease bookkeeping — sequence numbers, each lease's holder, manager
// liveness, per-manager counts — and §7.7's simulation
// (experiments.Scalability) drives it too, on a virtual clock. The
// adapter owns only wire concerns: scenario marshalling and interning.
// Candidate leasing, impact scoring, coverage, clustering and stop logic
// are the engine's, the code the in-process worker pool runs, so a
// distributed session produces the same full core.ResultSet (Result
// method) a local one does. A manager runs the engine's worker loop
// (core.Work) against a lease source over the wire; leasing one task at
// a time is the same loop at Manager.Batch = 1.
//
// Liveness is always on. The coordinator announces a beat interval
// (DefaultHeartbeat) in the Hello reply; a manager beats on it while it
// works, and every call counts as a beat. A manager silent for
// missedBeats beats is declared dead at the next call of any other
// (there is no timer): its leases leave the lease table, in seq order,
// for a queue NextBatch hands out before fresh candidates. A report
// folds only the seqs its sender holds, so a dead manager's late report,
// or one naming another's lease, folds nothing: each candidate folds
// once, and the engine, which trusts its executors, tracks no lease. The
// Hello admits a manager by the target it names: one running another
// model target than the session's is refused. With nothing to hand out
// while a lease is out, NextBatch waits up to one beat for a report or
// a reap, then tells the manager to retry, not that the session is done.
// Server.Close answers every call in flight, a lease with Done, before
// it closes the connections.
package rpcnode

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/rpc"
	"sync"
	"time"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
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
	mu   sync.Mutex // guards the book and the intern tables
	book *LeaseBook
	// stacks interns reported injection stacks by content hash: a
	// manager ships a stack's frames once and the 8-byte hash
	// thereafter (ResultWire.StackHash). Content addressing lets all
	// managers share one table. Lazily allocated.
	stacks map[uint64][]string
	// covs interns decoded coverage sets by their wire encoding (see
	// coverage, wire.go); at most maxInternedSets.
	covs map[string]prog.Outcome
	// now is the book's clock (the wall clock; tests set their own).
	now func() time.Time
	// forms is each subspace's key layout, to rebuild a folded plan.
	forms []inject.Form
}

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
	if impact != nil {
		cfg.Impact.Score = func(out prog.Outcome, newBlocks int, _ inject.Plan, _ int) float64 {
			return impact(out, newBlocks)
		}
	}
	engine, err := core.NewEngine(cfg, ex)
	if err != nil {
		return nil, fmt.Errorf("rpcnode: %w", err)
	}
	c := &Coordinator{covs: make(map[string]prog.Outcome), now: time.Now}
	c.book = NewLeaseBook(engine, cfg.Space, &c.mu)
	for _, names := range c.book.axisNames {
		c.forms = append(c.forms, inject.FormOf(names))
	}
	return c, nil
}

// SetTargetName labels the session's result set with the system under
// test, which only the managers load, and refuses a manager whose Hello
// names another.
func (c *Coordinator) SetTargetName(name string) {
	c.book.engine.SetTargetName(name)
	c.mu.Lock()
	c.book.target = name
	c.mu.Unlock()
}

// Heartbeat records a manager liveness beat (RPC method). Managers send
// it on the interval the Hello reply announces; like every call, it also
// reaps the managers that have gone silent (LeaseBook.Beat).
func (c *Coordinator) Heartbeat(managerID string, ack *bool) error {
	c.mu.Lock()
	c.book.Beat(c.now(), managerID)
	c.mu.Unlock()
	*ack = true
	return nil
}

// Engine returns the coordinator's underlying execution engine, for
// callers needing the full core.Snapshot — arms, pending leases, pool
// recycles — rather than the wire-level Stats (the control plane's
// status endpoint does).
func (c *Coordinator) Engine() *core.Engine { return c.book.engine }

// Snapshot returns the session statistics.
func (c *Coordinator) Snapshot() Stats {
	snap := c.Engine().Snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Executed:   snap.Executed,
		Failed:     snap.Failed,
		Crashed:    snap.Crashed,
		Hung:       snap.Hung,
		Injected:   snap.Injected,
		PerManager: maps.Clone(c.book.perManager),
	}
}

// Result seals and returns the session's full result set — records,
// redundancy clusters, crash identities, the synopsis — identical in
// shape to what a local core.Run produces. Call it once the managers are
// done (it fixes Elapsed on first call).
func (c *Coordinator) Result() *core.ResultSet {
	return c.Engine().Finish()
}

// Server serves a Coordinator over TCP.
type Server struct {
	Coordinator *Coordinator
	lis         net.Listener
	wg          sync.WaitGroup // the accept loop and one per connection
	mu          sync.Mutex
	conns       []net.Conn // every connection accepted
	deadline    time.Time  // set by Close: every connection's last moment
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
	s := &Server{Coordinator: c, lis: lis}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			if !s.deadline.IsZero() { // accepted as Close began
				conn.SetDeadline(s.deadline)
			}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				srv.ServeCodec(newFrameCodec(conn)) // returns once the manager hangs up and every reply is out
			}()
		}
	}()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops accepting connections and drains the open ones: a
// NextBatch waiting or arriving is answered Done, every call in flight
// is answered, and each connection closes once its manager, told Done,
// hangs up. One miss budget after Close began, the rest are closed.
func (s *Server) Close() error {
	err := s.lis.Close()
	s.Coordinator.mu.Lock()
	s.Coordinator.book.Close()
	s.Coordinator.mu.Unlock()
	s.mu.Lock()
	s.deadline = time.Now().Add(missedBeats * DefaultHeartbeat)
	for _, conn := range s.conns {
		conn.SetDeadline(s.deadline)
	}
	s.mu.Unlock()
	s.wg.Wait() // a connection is served until its manager hangs up or its deadline passes
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
	// delivered once in the Hello reply, and forms their key layouts, so
	// leased tasks convert from their values.
	axisNames [][]string
	forms     []inject.Form
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
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("rpcnode: dial %s: %w", addr, err)
	}
	m := &Manager{
		ID:          id,
		Target:      bcfg.Target,
		client:      rpc.NewClientWithCodec(newFrameCodec(conn)),
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
