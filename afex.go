// Package afex is the public API of the AFEX reproduction: automated,
// fitness-guided fault-injection testing of black-box systems, after
// "Fast Black-Box Testing of System Recovery Code" (Banabic & Candea,
// EuroSys 2012).
//
// # Overview
//
// AFEX explores a fault space — the cross product of a fault injector's
// parameters (which library call to fail, with which error, at which call
// number, during which test) — searching for the faults with the highest
// impact on a system under test. Instead of exhaustive or random
// sampling, it uses a fitness-guided algorithm (stochastic beam search
// with per-axis sensitivity analysis, Gaussian attribute mutation, and
// aging) that learns the structure of the fault space from the impact of
// past injections. Results are de-duplicated into redundancy clusters by
// comparing injection-point stack traces, scored for reproducibility, and
// ranked by severity.
//
// # Quick start
//
//	target, _ := afex.Target("coreutils")
//	space := afex.SpaceFor(target, 19, 0, 2)
//	res, err := afex.Explore(afex.Options{
//	    Target:     target,
//	    Space:      space,
//	    Algorithm:  afex.FitnessGuided,
//	    Iterations: 250,
//	})
//	fmt.Print(res.Report(10))
//
// The building blocks are exported for custom setups: define a fault
// space in the description language (ParseSpace), bring your own system
// under test (a prog.Program), or run the explorer distributed across
// machines (package rpcnode via the Cluster helpers).
//
// # Execution engine
//
// Every session — local or distributed — runs on one shared execution
// engine (Engine): candidate leasing, impact scoring, coverage
// accounting, redundancy clustering, feedback weighting and stop logic
// exist exactly once. Options.Workers runs that many in-process node
// managers, each running the same lease → execute → fold loop;
// Options.Batch sets how many candidates a worker leases per round (a
// single worker always leases one at a time and stays bit-for-bit
// deterministic). Advanced callers can build an Engine with NewSession
// and drive it with a custom Executor through RunWith.
//
// # Execution backends
//
// How one armed test physically executes is an execution backend,
// selected by registered name through Options.Backend (Backends lists
// the registry): "model" (the default) runs tests in-process against
// the simulated program model, while "process" runs each test as a
// real supervised subprocess of Options.Command — the armed injection
// plan travels in the AFEX_PLAN environment variable, the cooperating
// shim (package afex/shim) linked into the fixture consults it and
// streams injection-point stacks and coverage back over a report pipe,
// and the supervisor folds timeouts as Hung and signaled exits as
// Crashed. Process sessions persist, resume and replay exactly like
// model ones; the journal records backend name, exit status and
// duration per scenario. See the README's "Execution backends" section
// for the shim protocol and the cmd: target spec.
//
// # Scale
//
// Fault spaces are cheap no matter how many points they span: numeric
// axes are lazy (values format on demand, O(1) memory per axis) and
// Space.Size saturates in int64 instead of overflowing, so pair and
// detailed spaces with billions of points build in microseconds.
// Options.Shards partitions a space into disjoint regions
// (Space.Shard), each explored by an independent instance of the
// selected algorithm with candidates striped across the shards — the
// way to keep many workers, local or remote, from mining the same
// vicinity. Sharding composes with every registered strategy
// (sharded-random, sharded-genetic, sharded-portfolio, …); the
// exploration stack always composes in the order strategy → sharded →
// novelty filter.
//
// # Choosing an algorithm
//
// Options.Algorithm picks the search strategy (see Algorithms for the
// registry): fitness-guided when the failure landscape has structure to
// learn, random for flat landscapes or tiny budgets, exhaustive when
// the space is small enough to enumerate, genetic to reproduce the
// paper's abandoned-baseline comparison — and portfolio when the
// landscape is unknown: a UCB1 bandit splits the budget across fitness,
// random and genetic arms at runtime and tracks the best of them.
//
// # Persistence
//
// Options.StateDir makes a session durable and cumulative: every
// executed scenario is appended to a journal, the session state
// (explorer fitness state, redundancy clusters, similarity memory) is
// snapshotted periodically, and runs sharing the directory never
// re-execute each other's scenarios. Options.JournalFormat picks the
// journal encoding when the directory is created: "jsonl" (the default
// — greppable, byte-deterministic) or "binary" (length-prefixed
// crc-framed entries — no JSON encode on the hot path, and a killed run
// resumes in O(snapshot + tail) instead of re-reading the whole
// journal). Options.Resume continues a killed run
// exactly where it stopped; ReplayJournal (CLI: afex replay)
// re-executes recorded failures from their journaled injection plans,
// whichever format recorded them; ReadStateStats (CLI: afex stats)
// inspects a directory, including one whose binary journal an earlier
// build compacted into an archive segment. Options.Peer/Peers
// narrow a session to one of Peers disjoint regions of the space,
// recorded in the directory so it only resumes as the peer that wrote
// it. CoordinatorOptions carries the same StateDir, Resume and Peer/Peers
// for a distributed coordinator. See the README's "Persistence &
// resume" section.
package afex

import (
	"fmt"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/dsl"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
	"afex/internal/quality"
	"afex/internal/store"
	"afex/internal/targets"
	"afex/internal/trace"
)

// Algorithm names accepted by Options.Algorithm. They resolve through
// the exploration strategy registry (Algorithms lists it); an unknown
// name fails session construction with an error naming every valid
// choice. Sharding (Options.Shards) composes with all of them, in the
// documented composition order strategy → sharded → novelty filter.
const (
	// FitnessGuided is Algorithm 1 of the paper: the adaptive
	// fitness-guided search (stochastic beam search with sensitivity
	// analysis, Gaussian mutation and aging). The default.
	FitnessGuided = "fitness"
	// Random samples the space uniformly without replacement.
	Random = "random"
	// Exhaustive enumerates the whole space in order.
	Exhaustive = "exhaustive"
	// Genetic is the generational GA baseline the paper's authors tried
	// first and abandoned as inefficient (§3); it is provided so that
	// comparison can be reproduced.
	Genetic = "genetic"
	// Portfolio is the adaptive multi-armed-bandit meta-explorer: a
	// UCB1 bandit runs fitness, random and genetic arms over the same
	// space, re-allocating each lease to whichever arm is currently
	// earning the most impact-weighted fitness. Use it when the failure
	// landscape's structure is unknown — it tracks the best fixed
	// algorithm without betting the session on one up front. Result
	// sets report the per-arm budget split (Result.Arms).
	Portfolio = "portfolio"
)

// Algorithms returns the sorted names of every registered exploration
// strategy — the valid values of Options.Algorithm.
func Algorithms() []string { return explore.Strategies() }

// Execution backend names accepted by Options.Backend. They resolve
// through the backend registry (Backends lists it); an unknown name
// fails session construction with an error naming every valid choice —
// the same contract as Options.Algorithm.
const (
	// ModelBackend runs tests in-process against the simulated program
	// model (Options.Target). The default; microsecond tests, fully
	// deterministic.
	ModelBackend = "model"
	// ProcessBackend runs each test as a real supervised subprocess of
	// Options.Command: the armed injection plan travels in the
	// AFEX_PLAN environment variable, the cooperating shim (package
	// afex/shim) linked into the fixture consults it and streams the
	// injection-point stack and coverage back over a report pipe, and
	// the supervisor maps timeouts to Hung and signaled exits to
	// Crashed.
	ProcessBackend = "process"
)

// Backends returns the sorted names of every registered execution
// backend — the valid values of Options.Backend.
func Backends() []string { return backend.Names() }

// ParseCommandSpec parses a "cmd:" process-target spec — "cmd:" (the
// prefix is optional) followed by a whitespace-separated command
// template whose {test} tokens expand to the testID, e.g.
// "cmd:./crashy {test}". Per-test argument rows can be appended to the
// returned spec's TestArgs table.
func ParseCommandSpec(spec string) (*CommandSpec, error) { return backend.ParseSpec(spec) }

// Re-exported core types. The type aliases keep one set of documentation
// and let advanced callers drop down to the internal packages' richer
// surface without conversions.
type (
	// Options configures an exploration session.
	Options = core.Config
	// Result is a completed session's result set.
	Result = core.ResultSet
	// Record is one executed fault-injection test.
	Record = core.Record
	// Snapshot is the running tally handed to Stop conditions.
	Snapshot = core.Snapshot
	// ImpactOptions scores outcomes (points per new basic block, per
	// failure, per crash, per hang).
	ImpactOptions = core.ImpactConfig
	// ExploreOptions tunes the fitness-guided algorithm.
	ExploreOptions = explore.Config
	// ArmStat is one portfolio arm's bandit statistics (pulls, reward),
	// reported through Snapshot.Arms and Result.Arms.
	ArmStat = explore.ArmStat
	// Space is a union of fault subspaces.
	Space = faultspace.Union
	// Fault is a point in a fault space.
	Fault = faultspace.Fault
	// Point addresses a fault within a Space.
	Point = faultspace.Point
	// System is a runnable system under test (a program model).
	System = prog.Program
	// Outcome is what executing one fault-injection test observed.
	Outcome = prog.Outcome
	// RelevanceModel is a statistical environment model for practical-
	// relevance weighting (§7.5).
	RelevanceModel = quality.RelevanceModel
	// SuiteProfile is a fault-free profiling run of a target's suite.
	SuiteProfile = trace.SuiteProfile
	// Engine is the shared execution engine behind every session: both
	// the local worker pool and the distributed coordinator lease
	// candidates from and fold outcomes into one of these.
	Engine = core.Engine
	// Executor is the engine's deployment seam: it runs one leased
	// candidate and returns the observed outcome (the engine folds it).
	Executor = core.Executor
	// CommandSpec is the process backend's launch description: a
	// command template plus a per-test argument table.
	CommandSpec = backend.CommandSpec
	// BackendConfig configures an execution backend constructed outside
	// a session (e.g. for a process-backend node manager via
	// DialManagerBackend).
	BackendConfig = backend.Config
	// ExecRunner is a constructed execution backend: it runs armed
	// injection plans and reports outcomes plus execution metadata.
	ExecRunner = backend.Runner
	// JournalEntry is one journaled scenario execution of a persistent
	// session (Options.StateDir).
	JournalEntry = store.Entry
	// Meta describes a state directory: target, space signature, runs,
	// journal format.
	Meta = store.Meta
	// StateStats summarizes a state directory: journal format, segment
	// and index counts, entry count, resume-tail size (afex stats).
	StateStats = store.Stats
)

// Journal format names accepted by Options.JournalFormat. The format is
// chosen when a state directory is created and recorded in its
// metadata; an existing directory always keeps its format.
const (
	// JournalJSONL is the default journal format: one JSON object per
	// scenario, greppable, byte-deterministic for deterministic
	// sessions.
	JournalJSONL = store.FormatJSONL
	// JournalBinary is the hot-path format: length-prefixed crc-framed
	// binary entries, appended without JSON encoding and resumed in
	// O(snapshot + tail) instead of O(run).
	JournalBinary = store.FormatBinary
)

// ReadStateStats inspects a state directory read-only: which journal
// format it uses, entry/segment/index counts, and the resume-tail size
// past the latest snapshot. It is `afex stats` as a library call.
func ReadStateStats(dir string) (*StateStats, error) { return store.ReadStats(dir) }

// DefaultBatch is the per-worker lease batch size used when
// Options.Batch is zero and the session runs parallel.
const DefaultBatch = core.DefaultBatch

// NewSession validates opts and builds the execution engine without
// running it, its region and persistence wired up — the entry point for
// custom drivers (bespoke executors, throughput harnesses, alternative
// transports). Most callers want Explore instead. Options.Target may be
// nil only when the engine will be driven through RunWith with a custom
// Executor that runs tests elsewhere; RunLocal and LocalExecutor require
// a target. With Options.Peers > 1 the engine explores only region
// Options.Peer of the space. When Options.StateDir is set, it opens
// (creating if needed) the state directory, verifies the journal was
// written for the same target, fault space and peer region, loads prior
// scenario keys into the engine's novelty filter, restores the journaled
// records and clusters — plus the explorer's search state when
// Options.Resume is set — and installs the store so every executed
// scenario is journaled and the session state is snapshotted periodically
// and on Finish.
//
// The returned cleanup function flushes and closes the store (a no-op
// without StateDir); call it after the engine finishes. Drive the engine
// with RunLocal, or with RunWith for custom executors.
func NewSession(opts Options) (*Engine, func() error, error) {
	cleanup, err := attach(&opts, "")
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(opts, nil)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return eng, cleanup, nil
}

// attach decides a session's region and durability, for local sessions
// and coordinators alike: it narrows cfg.Space to peer region cfg.Peer
// of cfg.Peers and, with cfg.StateDir set, opens the store and attaches
// it under the target identity name ("" = cfg's own Target or Command).
// The returned cleanup closes the store.
func attach(cfg *core.Config, name string) (cleanup func() error, err error) {
	if cfg.Peers > 1 {
		if cfg.Peer < 0 || cfg.Peer >= cfg.Peers {
			return nil, fmt.Errorf("afex: peer %d out of range for %d peers", cfg.Peer, cfg.Peers)
		}
		// Always Peers regions; one left empty by a space narrower than
		// that is refused by the engine like any empty space.
		cfg.Space = cfg.Space.Shard(cfg.Peers)[cfg.Peer]
	}
	if cfg.StateDir == "" {
		return func() error { return nil }, nil
	}
	st, err := store.OpenOptions(cfg.StateDir, store.Options{
		Format:     cfg.JournalFormat,
		TailResume: cfg.Resume,
		Peer:       cfg.Peer,
		Peers:      cfg.Peers,
	})
	if err != nil {
		return nil, err
	}
	if name == "" {
		err = st.Attach(cfg)
	} else {
		err = st.AttachNamed(cfg, name)
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	return st.Close, nil
}

// Explore runs one fault-exploration session. With Options.StateDir set
// the session is persistent: executed scenarios are journaled, runs
// sharing the directory never re-execute each other's scenarios, and
// Options.Resume continues a killed run where it stopped (see the
// "Persistence & resume" section of the README).
func Explore(opts Options) (*Result, error) {
	if opts.Target == nil && opts.Command == nil {
		return nil, fmt.Errorf("afex: Options.Target is nil and no process Command is set")
	}
	if opts.Space == nil || opts.Space.Size() == 0 {
		return nil, fmt.Errorf("afex: Options.Space is nil or empty")
	}
	eng, cleanup, err := NewSession(opts)
	if err != nil {
		return nil, err
	}
	res := eng.RunLocal()
	if err := cleanup(); err != nil {
		return res, fmt.Errorf("afex: state store: %w", err)
	}
	return res, nil
}

// ReplayJournal loads the scenario journal at path — a state directory
// or a journal.jsonl file — for reproduction (`afex replay`). Entries
// come back in execution order.
func ReplayJournal(path string) ([]JournalEntry, error) { return store.ReadJournal(path) }

// StateMeta reads a state directory's metadata (target name, space
// signature, run stamps). It only reads: a directory a live session
// holds reads as well, and a missing one is an error, never created.
func StateMeta(dir string) (Meta, error) {
	meta, err := store.ReadMeta(dir)
	if err == nil && meta == nil {
		err = fmt.Errorf("afex: %s holds no state directory metadata", dir)
	}
	if err != nil {
		return Meta{}, err
	}
	return *meta, nil
}

// DefaultImpact returns the paper's suggested impact scoring: 1 point per
// newly covered basic block, 10 per failed test, 20 per crash, 15 per
// hang (§6.4).
func DefaultImpact() ImpactOptions { return core.DefaultImpact() }

// Target returns one of the built-in synthetic targets: "coreutils",
// "mysqld", "httpd", "mongo-v0.8" or "mongo-v2.0".
func Target(name string) (*System, error) { return targets.ByName(name) }

// TargetNames lists the built-in targets.
func TargetNames() []string { return targets.Names() }

// Profile runs the target's whole test suite with call tracing and no
// injection — the ltrace step of the fault-space definition methodology.
func Profile(target *System) *SuiteProfile { return trace.Profile(target) }

// SpaceFor builds the target's fault space per the paper's methodology:
// testID × the nFuncs most-called libc functions × callNumber in
// [callLo, callHi] (callLo 0 includes an explicit no-injection point).
func SpaceFor(target *System, nFuncs, callLo, callHi int) *Space {
	return Profile(target).BuildSpace(nFuncs, callLo, callHi)
}

// DetailedSpaceFor builds a Fig. 4-style fault space with explicit errno
// and retval axes: one subspace per function, each carrying exactly the
// error returns that function's fault profile allows. Use it when the
// target's error handling switches on errno (EINTR retried, EIO fatal)
// and the flat testID × function × callNumber space would blur that.
func DetailedSpaceFor(target *System, nFuncs, callLo, callHi int) *Space {
	return Profile(target).BuildDetailedSpace(nFuncs, callLo, callHi)
}

// PairSpaceFor builds a two-fault space for the target: testID ×
// (function, callNumber) × (function2, callNumber2), both call axes
// including the no-injection point 0. Pair exploration triggers
// retry-exhaustion bugs — recovery code that survives one fault but not
// a second on the same path — that no single-fault scan can reach.
//
// The space grows quadratically in points, but numeric axes are lazy
// (O(1) memory per axis, values formatted on demand) and sizes are
// computed in saturating 64-bit arithmetic, so building and exploring a
// billion-point pair space is cheap; use Options.Shards to spread the
// search over disjoint regions of it.
func PairSpaceFor(target *System, nFuncs, callHi int) *Space {
	return Profile(target).BuildPairSpace(nFuncs, callHi)
}

// ParseSpace parses a fault space description in the Fig. 3 language:
//
//	function : { malloc, calloc, realloc }
//	errno : { ENOMEM }
//	retval : { 0 }
//	callNumber : [ 1 , 100 ] ;
//
// Subspaces are separated by ";"; see package dsl for the grammar.
func ParseSpace(description string) (*Space, error) {
	d, err := dsl.Parse(description)
	if err != nil {
		return nil, err
	}
	return d.Build(), nil
}

// Paper75Model returns the statistical environment model used in the
// paper's §7.5 experiment (malloc 40%, file operations 50% combined,
// opendir/chdir 10% combined).
func Paper75Model() *RelevanceModel { return quality.Paper75Model() }

// TopPerformanceFaults searches for the faults that degrade the target's
// throughput the most (the §6 "top-50 worst faults performance-wise"
// target) and returns the top k records by impact alongside the full
// result set. perfWeight scales the work-loss component relative to the
// failure scoring.
func TopPerformanceFaults(opts Options, perfWeight float64, k int) ([]Record, *Result, error) {
	return core.TopPerformanceFaults(opts, perfWeight, k)
}
