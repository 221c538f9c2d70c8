package afex

import (
	"time"

	"afex/internal/core"
	"afex/internal/rpcnode"
)

// Distributed-mode re-exports (§6.1/§7.7): an explorer served over TCP
// with node managers pulling tests from it. See package rpcnode for the
// protocol details.
//
// The coordinator is a protocol adapter over the same execution engine
// (Engine) local sessions use, so a distributed session scores, clusters
// and tallies identically to a local one — and Coordinator.Result
// returns the same full Result a local Explore does, synopsis included.
type (
	// Coordinator adapts remote node managers to the shared execution
	// engine behind the cluster RPC service.
	Coordinator = rpcnode.Coordinator
	// CoordinatorServer is a listening coordinator.
	CoordinatorServer = rpcnode.Server
	// Manager is a remote node manager.
	Manager = rpcnode.Manager
	// ClusterStats summarizes a distributed session.
	ClusterStats = rpcnode.Stats
)

// CoordinatorOptions configures NewCoordinatorWithOptions — the full
// surface of a (possibly persistent, possibly peer-sharded)
// distributed coordinator. Space is the only required field.
type CoordinatorOptions struct {
	// TargetName labels the session; a manager of another target is refused.
	TargetName string
	// Space is the fault space to explore — the full space; when
	// Peers > 1 the coordinator carves out and explores only its own
	// region (Space.Shard(Peers)[Peer]).
	Space *Space
	// Algorithm selects the exploration strategy ("" = fitness).
	Algorithm string
	// Explore tunes it (Seed et al.).
	Explore ExploreOptions
	// Budget caps executed tests (0 = until the region is exhausted).
	Budget int
	// Shards partitions this coordinator's own space into disjoint
	// per-strategy regions (within its peer region, when both are set).
	Shards int
	// Feedback enables §7.4 result-quality feedback on the stacks the
	// managers report; TimeBudget, if positive, ends the session after
	// this much wall clock — managers are then told it is done, whatever
	// is left of Budget (Options.Feedback, Options.TimeBudget).
	Feedback   bool
	TimeBudget time.Duration
	// StateDir persists the session (empty = in-memory only);
	// JournalFormat picks the journal encoding for a new directory, and
	// Resume restores the explorer's search state.
	StateDir      string
	JournalFormat string
	Resume        bool
	// Peer/Peers place this coordinator in a multi-coordinator hunt:
	// the space is split across Peers coordinators via Space.Shard and
	// this one owns region Peer (0-based). The assignment is recorded
	// in the state directory's meta.json, so each peer can only ever
	// resume its own region. Peers <= 1 means single-coordinator.
	Peer  int
	Peers int
}

// NewCoordinatorWithOptions builds a distributed coordinator: any
// registered strategy ("fitness", "random", "genetic", "portfolio", …;
// unknown names return the registry's error listing every valid
// choice), sharded over Shards disjoint regions when Shards > 1 so
// remote node managers always work disjoint parts of the space, with
// optional persistence and multi-coordinator peer sharding. Manager
// liveness needs no option: a manager that misses its beats has its
// leases handed to the others (see package rpcnode).
//
// With StateDir set the coordinator journals every result its managers
// report, snapshots the session state, and — on a directory with prior
// state — continues the same session, never re-leasing a journaled
// scenario; Resume additionally restores the explorer's search state
// (including a portfolio's bandit counters), so a restarted
// `afex serve` picks up exactly where the killed one stopped.
//
// The returned cleanup flushes and closes the store (a no-op without
// StateDir); call it after Coordinator.Result.
func NewCoordinatorWithOptions(o CoordinatorOptions) (*Coordinator, func() error, error) {
	// The engine composes the exploration stack (strategy → sharded)
	// from the config, exactly as a local session's does.
	ecfg := core.Config{
		Space:         o.Space,
		Algorithm:     o.Algorithm,
		Explore:       o.Explore,
		Shards:        o.Shards,
		Iterations:    o.Budget,
		Feedback:      o.Feedback,
		TimeBudget:    o.TimeBudget,
		StateDir:      o.StateDir,
		JournalFormat: o.JournalFormat,
		Resume:        o.Resume,
		Peer:          o.Peer,
		Peers:         o.Peers,
	}
	cleanup, err := attach(&ecfg, o.TargetName)
	if err != nil {
		return nil, nil, err
	}
	coord, err := rpcnode.NewCoordinatorConfig(ecfg, nil, nil)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	coord.SetTargetName(o.TargetName)
	return coord, cleanup, nil
}

// ServeCoordinator starts serving the coordinator on addr ("host:port";
// ":0" picks an ephemeral port, see CoordinatorServer.Addr).
func ServeCoordinator(addr string, c *Coordinator) (*CoordinatorServer, error) {
	return rpcnode.Serve(addr, c)
}

// DialManager connects a node manager (with its local copy of the
// target) to a coordinator.
func DialManager(addr, id string, target *System) (*Manager, error) {
	return rpcnode.Dial(addr, id, target)
}

// DialManagerBackend connects a node manager that executes leased
// tests on any registered execution backend — e.g. ProcessBackend with
// a Command spec runs every leased scenario as a real supervised
// subprocess on the manager's machine, so a cluster can mix model
// managers with real-process ones. Unknown backend names fail with the
// registry's error listing every valid choice.
func DialManagerBackend(addr, id, backendName string, cfg BackendConfig) (*Manager, error) {
	return rpcnode.DialBackend(addr, id, backendName, cfg)
}
