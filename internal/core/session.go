// Package core wires AFEX together: an explorer (package explore)
// produces fault-injection candidates, node managers execute them against
// a system under test (package prog) through the injector (package
// inject), sensors measure impact, and the results are clustered, scored
// and ranked (packages cluster, quality).
//
// The architecture mirrors §6: the explorer is the main control point;
// node managers are workers that convert fault descriptions to injector
// configuration (via inject.Plugin), run the test scripts, and report a
// single aggregated impact value back. Tests are independent, so the
// session enjoys "embarrassing parallelism" — the Workers knob runs that
// many managers concurrently.
//
// # The engine layer
//
// Execution is organized around three pieces (see engine.go), chained
// lease → execute → fold:
//
//   - Engine owns all shared session state — candidate leasing, impact
//     scoring (scoring.go), coverage accounting, redundancy clustering,
//     feedback weighting, and stop/progress logic. There is exactly one
//     engine per session regardless of deployment mode.
//   - Executor is the deployment seam: it runs one leased candidate and
//     returns the observed outcome, touching no shared state. The
//     engine's own executor converts candidates to armed plans and runs
//     them on the session's execution backend (package backend: the
//     in-process "model", or "process" for real supervised
//     subprocesses); package rpcnode adapts remote node managers
//     reporting over TCP to the same engine.
//   - One worker loop drives them: lease a batch (Config.Batch) under
//     the narrow lease and explorer locks, execute it lock-free, fold it
//     back under one session-lock acquisition. RunWith runs
//     Config.Workers copies of it; a sequential session is one copy with
//     a batch of one. The loop leases from a Source, of which the Engine
//     is one: a remote node manager (package rpcnode) runs the same loop
//     (Work) against a source that leases and folds over the wire.
//
// Run is the high-level entry point; advanced callers (distributed
// coordinators, custom executors, throughput benchmarks) build an Engine
// directly via NewEngine and drive it with RunWith, Lease and Fold.
//
// # Time
//
// The engine reads one clock (clock.go) and never sleeps: a worker
// whose Lease comes back empty returns, and Done tells a coordinator the
// session is over. Outstanding leases are trusted to fold or Unlease;
// a lease lost with a remote manager is the coordinator's to hand out
// again (package rpcnode). The clock is the wall clock except in this
// package's tests, which own a fake one so a deadline falls at a chosen
// step, not after a sleep.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"afex/internal/backend"
	"afex/internal/cluster"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/prog"
	"afex/internal/quality"
)

// Config describes one fault-exploration session.
type Config struct {
	// Target is the system under test when tests run in-process against
	// the program model (the "model" backend).
	Target *prog.Program
	// Backend selects the execution backend by registered name
	// (backend.Names lists them): "model" runs tests in-process against
	// Target, "process" runs them as real supervised subprocesses of
	// Command. Empty selects "model" when Target is set and "process"
	// when only Command is; unknown names fail NewEngine with an error
	// listing every valid choice, the same contract as Algorithm.
	Backend string
	// Command is the process backend's launch spec: the command
	// template (with {test} expanding to the testID) plus the per-test
	// argument table. Required by the "process" backend; ignored by
	// "model".
	Command *backend.CommandSpec
	// ExecTimeout is the process backend's per-test wall-clock cap; a
	// test still running when it elapses is killed and folded as Hung.
	// Zero selects backend.DefaultTimeout.
	ExecTimeout time.Duration
	// Procs bounds the process backend's concurrently running
	// subprocesses, independently of Workers (effective process
	// parallelism is min(Workers, Procs)). Zero selects
	// backend.DefaultProcs.
	Procs int
	// JournalFormat selects the persistent journal encoding for a new
	// state directory: "jsonl" (the default — line-delimited JSON,
	// greppable, byte-deterministic for deterministic sessions) or
	// "binary" (length-prefixed crc-framed entries — the fast path for
	// large sessions). Existing directories keep the
	// format they were created with; setting a conflicting format
	// fails session construction.
	JournalFormat string
	// Space is the fault space to explore.
	Space *faultspace.Union
	// Algorithm selects the explorer by registered strategy name:
	// "fitness" (Algorithm 1, the default), "random" (uniform sampling
	// without replacement), "exhaustive" (lexicographic enumeration),
	// "genetic" (the generational GA baseline the paper abandoned, §3),
	// or "portfolio" (the adaptive UCB1 bandit over fitness/random/
	// genetic arms). Unknown names fail NewEngine with an error listing
	// every valid choice (explore.Strategies).
	Algorithm string
	// Explore tunes the fitness-guided algorithm (ignored by the
	// baselines except for Seed).
	Explore explore.Config
	// Iterations caps the number of tests executed. Zero means run until
	// the explorer exhausts the space or Stop fires.
	Iterations int
	// Workers is the number of concurrent node managers — copies of the
	// engine's worker loop. 0 or 1 runs one, on the calling goroutine,
	// leasing one candidate at a time: fully deterministic.
	Workers int
	// Shards partitions the fault space into this many disjoint regions
	// (faultspace.Union.Shard), each explored by an independent instance
	// of the selected Algorithm; candidates are striped across the
	// shards, so workers — local or remote — always cover disjoint parts
	// of the space. 0 or 1 runs one search over the whole space.
	// Sharding composes with every registered strategy (the composition
	// order is strategy → sharded → novelty filter).
	Shards int
	// Batch is the number of candidates a worker leases and folds per
	// round when Workers > 1 (amortizing coordination the way the RPC
	// protocol amortizes round-trips). 0 selects DefaultBatch.
	// Sequential sessions always lease one candidate at a time, so Batch
	// never affects their determinism.
	Batch int
	// Feedback enables the §7.4 result-quality feedback loop: the
	// fitness of a new result is weighted by (1 - max similarity) to all
	// previously seen injection stacks.
	Feedback bool
	// ClusterThreshold is the maximum Levenshtein distance (frames)
	// within a redundancy cluster; 0 selects clusterThreshold (1). It
	// stays only because package bench reads it and may change only in
	// a [benchmark] PR: nothing sets it, and ROADMAP item 7(d) removes
	// it.
	ClusterThreshold int
	// Impact scores outcomes; zero value selects DefaultImpact.
	Impact ImpactConfig
	// Stop, if non-nil, is evaluated after every executed test; returning
	// true ends the session (the "search target" of §6).
	Stop func(Snapshot) bool
	// TimeBudget, if positive, ends the session after this much wall
	// clock ("the tester can choose to stop the tests after some
	// specified amount of time", §6.4).
	TimeBudget time.Duration
	// Observe, if non-nil, is called with every completed record (under
	// the session lock, before Stop). It lets callers implement search
	// targets over record contents, e.g. "stop once these exact faults
	// have been executed".
	Observe func(Record)

	// Persistence (see persist.go and internal/store). StateDir, Resume
	// and Peer/Peers are declarative knobs consumed by the afex entry
	// points (afex.NewSession / afex.Explore, the control plane): they
	// carve the peer region out of Space, open the store and fill Store,
	// Seen and Restore below. Engines built directly through
	// core.NewEngine use those three seams and ignore all four.

	// StateDir, when non-empty, persists the session under this
	// directory: an append-only journal of every executed scenario plus
	// periodic snapshots. Runs sharing a StateDir form one cumulative
	// session — scenario keys journaled by earlier runs are never
	// executed again.
	StateDir string
	// Resume additionally restores the explorer's search state from the
	// StateDir snapshot, so fitness-guided exploration continues where
	// the previous run stopped instead of restarting its search (the
	// journal-backed novelty filter applies either way).
	Resume bool
	// Peer/Peers place the session in a multi-coordinator hunt: Space is
	// split into Peers disjoint regions (faultspace.Union.Shard) and the
	// session explores region Peer (0-based) only. The assignment is
	// recorded in the state directory's meta.json, so a directory only
	// ever resumes as the peer that wrote it. Peers <= 1 explores the
	// whole space.
	Peer  int
	Peers int
	// StateStamp is the run's timestamp-from-config recorded in the
	// store's metadata (journal entries carry only their run index, so
	// deterministic sessions produce deterministic journal bytes). Empty
	// selects the current wall clock.
	StateStamp string

	// Store receives every folded record and periodic session
	// snapshots.
	Store Store
	// Seen holds scenario keys executed by prior runs, frozen: the engine
	// wraps the explorer in a novelty filter that never hands them out
	// again and lists them, in the set's order, ahead of this run's in
	// every snapshot. Nothing adds to the set once the engine has it, so
	// the filter and the fold path read it without a lock.
	Seen *explore.KeySet
	// Restore, if non-nil, rebuilds the session (records, counters,
	// clusters, explorer state) before the first lease.
	Restore *Restore
	// SnapshotEvery is the number of folds between periodic snapshots
	// when a Store is attached (default DefaultSnapshotEvery).
	SnapshotEvery int

	clock clock // the engine's time source; nil is the wall clock
}

// Snapshot is the running tally handed to Stop conditions and progress
// logs.
// The JSON tags are the control plane's status-endpoint schema; local
// code reads the fields directly.
type Snapshot struct {
	Executed    int `json:"executed"`
	Injected    int `json:"injected"`
	Failed      int `json:"failed"`
	Crashed     int `json:"crashed"`
	Hung        int `json:"hung"`
	NewCrashIDs int `json:"newCrashIDs"`
	// UniqueFailures is the current number of failure redundancy
	// clusters.
	UniqueFailures int `json:"uniqueFailures"`
	// Pending counts candidates leased but not yet folded back — the
	// outstanding work of in-flight workers or remote managers.
	Pending int `json:"pending"`
	// PoolRecycles counts warm worker processes the execution backend
	// has recycled at the end of their life (process backend only; zero
	// elsewhere).
	PoolRecycles int64 `json:"poolRecycles"`
	// Coverage is the fraction of the target's basic blocks covered, and
	// Blocks the distinct blocks covered: all a target that does not say
	// how many it has (a cmd: fixture) can be given.
	Coverage float64 `json:"coverage"`
	Blocks   int     `json:"blocks"`
	// BlockSets counts the distinct coverage sets folded (by content sum,
	// prog.Outcome.BlockSum) and BlockWalks the folds that walked theirs;
	// the rest repeated a set and skipped: 1 − BlockWalks/Executed.
	BlockSets  int `json:"blockSets"`
	BlockWalks int `json:"blockWalks"`
	// AvgTestNS is the EWMA of per-test execution wall clock reported
	// by lessees (Engine.LeaseFor) and AdaptiveBatch the adaptive lease
	// size derived from it, for a lone manager. Both stay zero until a
	// lessee reports latency — today only distributed managers do.
	AvgTestNS     int64 `json:"avgTestNs,omitempty"`
	AdaptiveBatch int   `json:"adaptiveBatch,omitempty"`
	// Snapshots counts the session snapshots handed to the store so far
	// and SnapshotNS the wall clock they cost the engine, cumulatively:
	// capturing the view under the session lock, assembling it outside,
	// and enqueueing it (encoding and IO are the store's, see
	// store.Stats). Both zero for store-less sessions.
	Snapshots  int64 `json:"snapshots,omitempty"`
	SnapshotNS int64 `json:"snapshotNs,omitempty"`
	// Resume says how a restored session came back and what that cost;
	// nil for a session that started from nothing.
	Resume *ResumeInfo `json:"resume,omitempty"`
	// Arms is the portfolio explorer's live per-arm bandit statistics
	// (nil for fixed-strategy sessions).
	Arms []explore.ArmStat `json:"arms,omitempty"`
}

// Summary renders the snapshot as the one-line progress synopsis shared
// by the CLI's --progress ticker and the control plane's session status:
// the counter tally, the lease picture, coverage (the blocks covered,
// for a target that has no block count), and — for portfolio sessions —
// the live per-arm pulls and mean reward.
func (s Snapshot) Summary() string {
	var b strings.Builder
	cov := fmt.Sprintf("coverage=%.1f%%", 100*s.Coverage)
	if s.Coverage == 0 && s.Blocks > 0 {
		cov = fmt.Sprintf("blocks=%d", s.Blocks)
	}
	fmt.Fprintf(&b, "executed=%d failures=%d clusters=%d leases=%d %s", s.Executed, s.Failed, s.UniqueFailures, s.Pending, cov)
	if len(s.Arms) > 0 {
		b.WriteString(" arms[")
		for i, a := range s.Arms {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%d/%.3f", a.Name, a.Pulls, a.Mean)
		}
		b.WriteString("]")
	}
	return b.String()
}

// Record is one executed fault-injection test.
type Record struct {
	// ID is the execution index within the session.
	ID int
	// Point is the fault's coordinates in the space.
	Point faultspace.Point
	// Scenario is the wire-format fault description sent to the manager.
	Scenario string
	// TestID is the target test that was run.
	TestID int
	// Plan is the armed injection plan.
	Plan inject.Plan
	// Skipped reports that the injector could not express the scenario
	// (a practical hole in the fault space): the record carries a
	// zero-impact outcome and is tallied in ResultSet.Holes.
	Skipped bool
	// Backend is the registered name of the execution backend that ran
	// the test ("model", "process"); journaled so persistent sessions
	// replay and resume with the right executor.
	Backend string
	// ExitStatus is the process backend's exit disposition ("exit:0",
	// "signal:killed", "timeout"). Empty for in-process model runs.
	ExitStatus string
	// Duration is the test's wall clock as measured by the supervisor.
	// Zero for model runs — simulated tests are instantaneous, and a
	// deterministic session must journal deterministic bytes.
	Duration time.Duration
	// Outcome is what the sensors observed.
	Outcome prog.Outcome
	// NewBlocks counts basic blocks this test covered first.
	NewBlocks int
	// Impact is the measured impact IS(φ).
	Impact float64
	// Fitness is the (possibly feedback-weighted) value the explorer
	// learned from.
	Fitness float64
	// Cluster is the redundancy cluster id among failure-inducing
	// records, or -1.
	Cluster int
	// Shard is the index of the shard that generated the candidate in a
	// sharded session, or -1.
	Shard int
	// Relevance is the fault's probability of occurring in the modelled
	// environment (§5 "Practical Relevance"), when the session has a
	// relevance model; 0 otherwise.
	Relevance float64
	// Precision is the impact precision 1/Var over repeated trials,
	// filled by MeasurePrecision; 0 until measured. +Inf means the
	// impact is perfectly reproducible.
	Precision float64
}

// ResultSet is the output of a session (§6.3): the records, aggregate
// statistics, redundancy clusters, and operational synopsis.
type ResultSet struct {
	Target    string
	Algorithm string
	// SpaceSize is the fault space's point count, in the saturating
	// 64-bit arithmetic of faultspace.Space.Size — huge pair/detailed
	// spaces report math.MaxInt64 rather than wrapping.
	SpaceSize int64

	// Records are the materialized records, in execution order. They
	// normally cover the whole session; after a tail-only restore
	// (Restore.Base > 0) they cover only record IDs [Base(), Executed)
	// — counters still describe the full session. Index via RecordByID
	// when IDs may predate Base().
	Records []Record

	Executed int
	Injected int
	Failed   int
	Crashed  int
	Hung     int
	// Holes counts executed scenarios the injector could not express
	// (Record.Skipped): zero-impact runs that would otherwise vanish
	// silently from the accounting.
	Holes int

	// UniqueFailures and UniqueCrashes count redundancy clusters among
	// failure- and crash-inducing records (distinct stack traces at the
	// injection point, §7.4).
	UniqueFailures int
	UniqueCrashes  int
	// CrashIDs counts occurrences of each distinct planted/derived crash
	// identity — the ground-truth "how many real bugs did we find".
	CrashIDs map[string]int

	// Coverage is the fraction of the target's basic blocks covered by
	// the session's runs; RecoveryCoverage the fraction of recovery
	// blocks. Both stay zero for a target that does not say how many
	// blocks it has (a cmd: fixture); Blocks counts the distinct blocks
	// covered either way.
	Coverage         float64
	RecoveryCoverage float64
	Blocks           int

	// Sensitivities is the fitness-guided explorer's final normalized
	// per-axis sensitivity (nil for the baselines).
	Sensitivities []float64

	// Arms is the portfolio explorer's final per-arm bandit statistics:
	// how the adaptive session split its budget across the fitness,
	// random and genetic arms, and what each arm earned (nil for
	// fixed-strategy sessions).
	Arms []explore.ArmStat

	// Elapsed is the wall-clock duration of the session.
	Elapsed time.Duration

	failClusters  *cluster.Set
	crashClusters *cluster.Set
	// base is the record ID Records starts at (Restore.Base; 0 unless
	// the session tail-restored from a compacted/indexed journal).
	base int
}

// Base returns the record ID Records[0] corresponds to: 0 for a fully
// materialized session, the snapshot sequence for a tail-only restore.
func (r *ResultSet) Base() int { return r.base }

// RecordByID returns the record with the given session-wide ID, or nil
// when it is not materialized (an ID from before a tail-only restore's
// base, or out of range).
func (r *ResultSet) RecordByID(id int) *Record {
	i := id - r.base
	if i < 0 || i >= len(r.Records) {
		return nil
	}
	return &r.Records[i]
}

// Run executes a fault-exploration session and returns its results.
func Run(cfg Config) (*ResultSet, error) {
	if cfg.Target == nil && cfg.Command == nil {
		return nil, fmt.Errorf("core: Config.Target is nil and no process Command is set")
	}
	if cfg.Space == nil || cfg.Space.Size() == 0 {
		return nil, fmt.Errorf("core: Config.Space is nil or empty")
	}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		return nil, err
	}
	return e.RunLocal(), nil
}

// FailedAt reports whether the i-th executed test was a failure-inducing
// injection (used by the cumulative curves of Fig. 8).
func (r *ResultSet) FailedAt(i int) bool {
	rec := r.RecordByID(i)
	if rec == nil {
		return false
	}
	out := rec.Outcome
	return out.Injected && out.Failed
}

// RankBySeverity returns the records sorted by impact, highest first —
// the ranking AFEX presents to developers (§1: "ranks them by severity").
func (r *ResultSet) RankBySeverity() []Record {
	out := append([]Record(nil), r.Records...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Impact > out[j].Impact })
	return out
}

// FailureClusters returns the redundancy clusters among failure-inducing
// records, largest first.
func (r *ResultSet) FailureClusters() []cluster.Cluster {
	if r.failClusters == nil {
		return nil
	}
	return r.failClusters.Clusters()
}

// CrashClusters returns the redundancy clusters among crash-inducing
// records, largest first.
func (r *ResultSet) CrashClusters() []cluster.Cluster {
	if r.crashClusters == nil {
		return nil
	}
	return r.crashClusters.Clusters()
}

// Representatives returns one record per failure cluster — the tests
// worth promoting into a regression suite (§6: "Representatives of each
// redundancy cluster can thus be directly assembled into regression test
// suites").
func (r *ResultSet) Representatives() []Record {
	var out []Record
	for _, cl := range r.FailureClusters() {
		if len(cl.Members) == 0 {
			continue
		}
		// After a tail-only restore, clusters can reference records that
		// predate the materialized base; fall forward to the first
		// member that is available.
		for _, m := range cl.Members {
			if rec := r.RecordByID(m); rec != nil {
				out = append(out, *rec)
				break
			}
		}
	}
	return out
}

// MeasurePrecision re-runs each failure-cluster representative trials
// times on the execution-backend runner r — its journaled plan re-armed
// on the target the session drove — and fills its Precision field (§5:
// "AFEX runs the same test n times and computes the variance of the
// fault's impact across the n trials; the impact precision is 1/Var").
// It returns the measured representatives. The program models are
// deterministic, so on one the result is always +Inf — exactly the
// reproducible failures the paper says developers should debug first;
// only real processes can yield finite values.
//
// Impact per trial is scored with the same configuration the session
// used, minus coverage novelty (which is session state, not a property
// of the fault).
func (r *ResultSet) MeasurePrecision(runner backend.Runner, im ImpactConfig, trials int) []Record {
	if trials <= 1 {
		trials = 2
	}
	reps := r.Representatives()
	for i := range reps {
		rec := &reps[i]
		_, rec.Precision = quality.Measure(trials, func(int) float64 {
			out, _ := runner.Run(rec.TestID, rec.Plan)
			if im.Score != nil {
				return im.Score(out, 0, rec.Plan, rec.TestID)
			}
			return im.outcomeBase(out)
		})
		// Reflect the measurement into the session record too.
		if own := r.RecordByID(rec.ID); own != nil {
			own.Precision = rec.Precision
		}
	}
	return reps
}

// ReproScript renders a generated, self-contained reproduction script for
// a record (§6.3 "Test Suites"). The script replays the exact scenario
// through the afex CLI.
func (r *ResultSet) ReproScript(rec Record) string {
	var b strings.Builder
	b.WriteString("#!/bin/sh\n")
	fmt.Fprintf(&b, "# AFEX-generated reproduction: %s, scenario #%d\n", r.Target, rec.ID)
	fmt.Fprintf(&b, "# outcome: failed=%v crashed=%v hung=%v impact=%.1f\n",
		rec.Outcome.Failed, rec.Outcome.Crashed, rec.Outcome.Hung, rec.Impact)
	if len(rec.Outcome.InjectionStack) > 0 {
		fmt.Fprintf(&b, "# stack at injection point:\n")
		for _, fr := range rec.Outcome.InjectionStack {
			fmt.Fprintf(&b, "#   %s\n", fr)
		}
	}
	fmt.Fprintf(&b, "exec afex replay --target %s --scenario %s\n", shellQuote(r.Target), shellQuote(rec.Scenario))
	return b.String()
}

// shellQuote renders s as one /bin/sh word: as it is when the shell
// reads every byte of it literally, else in single quotes.
func shellQuote(s string) string {
	if s != "" && strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.,:/@%+=") == "" {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

// Report renders the operational synopsis of §6.3: search setup, counts,
// coverage, cluster summary and the top faults by severity.
func (r *ResultSet) Report(topK int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "AFEX session report\n")
	fmt.Fprintf(&b, "  target        %s\n", r.Target)
	fmt.Fprintf(&b, "  algorithm     %s\n", r.Algorithm)
	fmt.Fprintf(&b, "  fault space   %d points\n", r.SpaceSize)
	fmt.Fprintf(&b, "  tests         %d executed, %d injected\n", r.Executed, r.Injected)
	if r.Holes > 0 {
		fmt.Fprintf(&b, "  holes         %d scenarios the injector could not express\n", r.Holes)
	}
	fmt.Fprintf(&b, "  failures      %d (%d unique)\n", r.Failed, r.UniqueFailures)
	fmt.Fprintf(&b, "  crashes       %d (%d unique), hangs %d\n", r.Crashed, r.UniqueCrashes, r.Hung)
	if r.Coverage == 0 && r.Blocks > 0 {
		fmt.Fprintf(&b, "  coverage      %d blocks\n", r.Blocks)
	} else {
		fmt.Fprintf(&b, "  coverage      %.2f%% (recovery code %.2f%%)\n", 100*r.Coverage, 100*r.RecoveryCoverage)
	}
	fmt.Fprintf(&b, "  elapsed       %v\n", r.Elapsed.Round(time.Millisecond))
	if len(r.CrashIDs) > 0 {
		ids := make([]string, 0, len(r.CrashIDs))
		for id := range r.CrashIDs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "  distinct crash identities:\n")
		for _, id := range ids {
			fmt.Fprintf(&b, "    %-48s ×%d\n", id, r.CrashIDs[id])
		}
	}
	if len(r.Arms) > 0 {
		fmt.Fprintf(&b, "  portfolio arms (pulls, mean reward):\n")
		for _, a := range r.Arms {
			fmt.Fprintf(&b, "    %-10s %6d pulls  mean %.3f\n", a.Name, a.Pulls, a.Mean)
		}
	}
	if r.Sensitivities != nil {
		fmt.Fprintf(&b, "  axis sensitivities: ")
		for i, v := range r.Sensitivities {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%.2f", v)
		}
		b.WriteString("\n")
	}
	ranked := r.RankBySeverity()
	if topK > len(ranked) {
		topK = len(ranked)
	}
	if topK > 0 {
		fmt.Fprintf(&b, "  top %d faults by severity:\n", topK)
		for _, rec := range ranked[:topK] {
			fmt.Fprintf(&b, "    impact=%7.1f cluster=%3d %s\n", rec.Impact, rec.Cluster, rec.Scenario)
		}
	}
	return b.String()
}
