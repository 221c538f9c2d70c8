package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"afex/internal/backend"
	"afex/internal/cluster"
	"afex/internal/dsl"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/prog"
)

// DefaultBatch is the number of candidates a worker leases per round
// when Config.Batch is unset and the session runs parallel.
const DefaultBatch = 8

// DefaultSnapshotEvery is the floor on the number of folded tests
// between periodic session snapshots when Config.SnapshotEvery is unset
// and a Store is attached; the defaulted interval then grows with
// session size (Executed/8): assembling a snapshot sorts only the stacks
// remembered since the last, and the store re-interns no stack it has
// met, but it still copies the executed keys and re-encodes the cluster
// members, which grow with the session. The cadence trades
// resume fidelity (post-snapshot records replay from the journal with
// stale explorer randomness) against that write. An explicit
// Config.SnapshotEvery is honored exactly.
const DefaultSnapshotEvery = 256

// clusterThreshold is the edit distance, in frames, within which two
// injection stacks fall into one redundancy cluster (§5): one frame
// apart is still the same manifestation, reached through a neighbouring
// caller, while 0 would split every such pair. Nothing in the system
// measures a better value, so it is a constant, not a knob; snapshots
// carry each set's own threshold, so a restored set keeps the one it was
// written with.
const clusterThreshold = 1

// Executor runs leased candidates against the system under test; a
// BackendExecutor runs them on an execution backend, in a local worker
// or a remote node manager alike. Executors must be safe for concurrent
// use; they touch no engine state.
type Executor interface {
	// Execute runs one candidate and returns the partially filled record
	// (Point, Scenario, TestID, Plan, Skipped) plus the observed outcome.
	// Folding the outcome into session state is the engine's job.
	Execute(c explore.Candidate) (Record, prog.Outcome)
}

// Source is where the worker loop leases candidates and folds what it
// ran, in the order it ended: the Engine in process, or a lease source
// over the wire (package rpcnode), so a remote node manager runs this
// package's loop (Work). An empty Lease ends the loop: a source that
// has to wait for work waits inside Lease. Once Stopped, a worker arms
// nothing more and hands back what it has not started through Unlease.
type Source interface {
	Lease(n int) []explore.Candidate
	FoldBatch(done []ExecutedTest) bool
	Stopped() bool
	Unlease(n int)
}

// Engine is the shared execution core of a fault-exploration session.
// Exactly one engine exists per session, regardless of deployment mode:
// the in-process worker pool (RunLocal) and the distributed coordinator
// (package rpcnode) both lease candidates from it and fold outcomes into
// it, so candidate accounting, impact scoring, coverage, clustering,
// feedback weighting and stop/progress logic live in one place.
//
// The engine is safe for concurrent use. Workers lease and fold in
// batches (Config.Batch), so the session lock is taken once per batch;
// explorer access is serialized on its own lock, so the explorer itself
// never needs to be thread-safe.
type Engine struct {
	cfg      Config
	explorer explore.Explorer
	// runner is the execution backend the engine's own executor drives
	// (nil for engines whose tests run elsewhere, e.g. a distributed
	// coordinator); backendName is its registered name, stamped on
	// records.
	runner      backend.Runner
	backendName string
	// shardOf labels records with their owning shard in sharded
	// sessions (nil otherwise).
	shardOf func(faultspace.Point) int
	// armStats reads the portfolio explorer's per-arm bandit statistics
	// (nil for non-portfolio sessions). Called under the session lock.
	armStats func() []explore.ArmStat
	// recycles reads the execution backend's warm-worker recycle count
	// (nil when the backend has no pool). Lock-free on the backend side,
	// so snapshots may call it under the session lock.
	recycles func() int64
	// axisNames and forms cache each subspace's axis names and their
	// key layout for the execution hot path.
	axisNames [][]string
	forms     []inject.Form

	// mu is the session lock: fold state (counters, coverage, clusters,
	// records, hooks). Lease takes only exMu, never mu. Lock order is
	// mu → exMu.
	mu sync.Mutex

	// exMu guards all explorer access — BatchNext, ReportBatch, state
	// export, sensitivities, arm statistics — preserving the Explorer
	// contract ("Next and Report may be called from one goroutine
	// only"): generation runs under it alone, never under mu. Leasing
	// and fold commits meet only here, so it also guards the lease
	// bookkeeping below (pending through latEWMA) and the seal.
	exMu sync.Mutex
	// pending counts candidates handed out but not yet folded back.
	// committed counts every claim against the Iterations budget:
	// executed + pending. The remaining budget is Iterations - committed,
	// so leases never overshoot.
	pending   int
	committed int
	// done is Done's channel, closed through seal.
	done chan struct{}
	seal sync.Once
	// exhausted means the explorer ran dry (a BatchNext came back
	// short): no Lease asks it again.
	exhausted bool

	// latEWMA tracks per-test execution wall clock (nanoseconds) as an
	// exponentially weighted moving average of what lessees report
	// (LeaseFor). Adaptive wire batching divides a target round
	// duration by it: slow targets get small lease batches (little
	// lost with a dead manager), fast ones large batches (round-trip
	// amortization). Zero until the first observation.
	latEWMA float64

	covered     map[int]struct{}
	recovered   map[int]struct{}
	recoverySet map[int]struct{}
	// coveredList and recoveredList mirror the maps as append-only
	// slices: session snapshots capture them as O(1) slice views under
	// the lock and sort a copy outside it (see sessionViewLocked).
	coveredList   []int
	recoveredList []int
	// foldedSets holds the coverage sets walked into covered/recovered,
	// as (content sum, size), and blockWalks counts the walks: the maps
	// only grow, so foldLocked skips a set found here. Derived state, not
	// snapshotted, empty after a restore, at most maxFoldedSets.
	foldedSets    map[[2]uint64]struct{}
	blockWalks    int
	allStacks     *cluster.Set
	failClusters  *cluster.Set
	crashClusters *cluster.Set
	res           *ResultSet
	feedback      []explore.Feedback // commitBatch's, reused under mu
	// stopped flips once and is read on every Lease, so it is atomic
	// rather than lock-bound; deadline is immutable after NewEngine.
	stopped  atomic.Bool
	deadline time.Time
	start    time.Time
	finished bool
	// prevElapsed accumulates wall clock from prior runs of a restored
	// session; sinceSnap counts folds since the last periodic snapshot.
	// adaptiveSnap (set when SnapshotEvery was defaulted) grows the
	// snapshot interval with session size, keeping the store's
	// O(session) snapshot encode amortized O(1) per fold.
	prevElapsed  time.Duration
	sinceSnap    int
	adaptiveSnap bool
	// seen is every executed key in fold order across every run: the list
	// after cfg.Seen, the frozen set the session started from (which holds
	// the restored records' keys), with this run's folds appended; nil for
	// store-less sessions. It has no index: only a snapshot reads it, as a
	// view (SessionState.Aggregates.SeenKeys), so a tail restore can seed
	// the novelty filter without re-reading the journal, and that restore
	// indexes the list once (store.Recover).
	seen *explore.Keys
	// resume is how the session was restored (nil when it was not).
	resume *ResumeInfo
	// snapMu serializes session-snapshot delivery to the store, which
	// happens outside e.mu so assembling never stalls folding. snapSeq is
	// the highest Seq delivered; a snapshot overtaken by a newer one
	// while waiting its turn is dropped (latest wins — the store only
	// ever needs the most recent one).
	snapMu  sync.Mutex
	snapSeq int
	// snapshots counts the session snapshots handed to the store and
	// snapshotNS their cumulative capture + assemble + enqueue wall clock
	// (Snapshot.Snapshots/SnapshotNS). Timed per snapshot, never per fold.
	snapshots  atomic.Int64
	snapshotNS atomic.Int64
}

// NewEngine validates cfg and builds an engine. ex overrides the
// explorer; when nil, one is constructed from cfg.Algorithm over
// cfg.Space (which must then be non-empty). cfg.Target may be nil for
// engines whose executors run tests elsewhere (the distributed
// coordinator); coverage fractions then stay zero.
func NewEngine(cfg Config, ex explore.Explorer) (*Engine, error) {
	if ex == nil {
		if cfg.Space == nil || cfg.Space.Size() == 0 {
			return nil, fmt.Errorf("core: Config.Space is nil or empty")
		}
		if cfg.Algorithm == "" {
			cfg.Algorithm = "fitness"
		}
		// Composition order of the exploration stack: strategy → sharded
		// → novel (the novelty wrap happens below, after restore). Shards
		// composes with every registered strategy.
		if cfg.Shards > 1 {
			sh, err := explore.NewShardedStrategy(cfg.Space, cfg.Shards, cfg.Algorithm, cfg.Explore)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			cfg.Algorithm = sh.Name()
			ex = sh
		} else {
			var err error
			ex, err = explore.New(cfg.Algorithm, cfg.Space, cfg.Explore)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	}
	if cfg.Algorithm == "" {
		// Label the result set after the caller-provided explorer.
		cfg.Algorithm = ex.Name()
	}
	if cfg.ClusterThreshold == 0 {
		cfg.ClusterThreshold = clusterThreshold
	}
	if cfg.Impact.zero() {
		cfg.Impact = DefaultImpact()
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.clock == nil {
		cfg.clock = wallClock{}
	}
	adaptiveSnap := cfg.SnapshotEvery <= 0
	if adaptiveSnap {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	e := &Engine{
		cfg:           cfg,
		done:          make(chan struct{}),
		covered:       make(map[int]struct{}),
		recovered:     make(map[int]struct{}),
		foldedSets:    make(map[[2]uint64]struct{}),
		allStacks:     cluster.NewSet(cfg.ClusterThreshold),
		failClusters:  cluster.NewSet(cfg.ClusterThreshold),
		crashClusters: cluster.NewSet(cfg.ClusterThreshold),
		res: &ResultSet{
			Algorithm: cfg.Algorithm,
			CrashIDs:  make(map[string]int),
		},
	}
	if cfg.Target != nil {
		e.res.Target = cfg.Target.Name
		e.recoverySet = cfg.Target.RecoveryBlocks()
	} else if cfg.Command != nil {
		e.res.Target = cfg.Command.Target()
	}
	// Execution backend: resolve the configured name through the
	// backend registry. An unknown name fails construction with the
	// registry's error listing every valid choice — the same contract
	// as Algorithm. Engines with neither a Target nor a Command (a
	// distributed coordinator, whose managers execute) build no runner;
	// they must be driven through RunWith.
	bname := cfg.Backend
	if bname == "" {
		switch {
		case cfg.Target != nil:
			bname = backend.Model
		case cfg.Command != nil:
			bname = backend.Process
		}
	}
	if bname != "" {
		r, err := backend.New(bname, backend.Config{
			Target:  cfg.Target,
			Command: cfg.Command,
			Timeout: cfg.ExecTimeout,
			Procs:   cfg.Procs,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		e.runner = r
		e.backendName = bname
		if rc, ok := r.(backend.Recycler); ok {
			e.recycles = rc.Recycles
		}
	}
	if cfg.Space != nil {
		e.res.SpaceSize = cfg.Space.Size()
		e.axisNames = make([][]string, len(cfg.Space.Spaces))
		e.forms = make([]inject.Form, len(cfg.Space.Spaces))
		for i := range cfg.Space.Spaces {
			e.axisNames[i] = dsl.AxisNames(cfg.Space, i)
			e.forms[i] = inject.FormOf(e.axisNames[i])
		}
	}
	// Persistence: rebuild session state from a recovered journal +
	// snapshot, then put the cross-run novelty filter in front of the
	// explorer so no journaled scenario key is ever executed twice.
	if cfg.Restore != nil {
		began := cfg.clock.Now()
		if err := e.applyRestore(cfg.Restore); err != nil {
			return nil, err
		}
		if err := restoreExplorer(ex, cfg.Restore); err != nil {
			return nil, err
		}
		info := cfg.Restore.Info
		info.RestoreNS = int64(cfg.clock.Now().Sub(began))
		e.resume = &info
	} else {
		e.res.Records = e.reserveRecords(nil)
	}
	// Shard labels exist for the journal; the per-fold geometry lookup
	// (O(shards), under the session lock) is only paid when a store is
	// attached.
	if sh, ok := ex.(*explore.Sharded); ok && cfg.Store != nil {
		e.shardOf = sh.ShardOf
	}
	// Per-arm statistics for portfolio sessions (captured before the
	// novelty wrap; Novel would delegate anyway).
	if ar, ok := ex.(explore.ArmReporter); ok {
		e.armStats = ar.ArmStats
	}
	if cfg.Seen.Len() > 0 {
		ex = explore.NewNovel(ex, cfg.Seen)
	}
	// Seen-key tracking feeds snapshot aggregates, which is what makes
	// tail-only resume possible; only store-backed sessions pay for it.
	if cfg.Store != nil {
		e.seen = explore.After(cfg.Seen)
	}
	e.explorer = ex
	e.adaptiveSnap = adaptiveSnap
	// The committed budget counter starts at what the restored journal
	// already spent (seal a spent budget); every lease claims against it.
	e.committed = e.res.Executed
	e.progressLocked()
	e.start = cfg.clock.Now()
	if cfg.TimeBudget > 0 {
		e.deadline = e.start.Add(cfg.TimeBudget)
	}
	return e, nil
}

// Lease hands out up to max candidates, bounded by the remaining
// Iterations budget (counting outstanding leases, so the session never
// overshoots). It returns nil once the session is stopped, the deadline
// has passed, the budget is committed, or the explorer is exhausted.
//
// Candidates are generated here, by the Lease that hands them out,
// under the explorer lock alone, which also guards the budget: at most
// Iterations − committed are generated, and what came back is counted.
// The session lock is never taken, so leasing does not serialize against
// the fold work of a commit, only against its explorer report. A Stop
// that lands mid-generation waits for it to finish, and the Lease hands
// out nothing. A single-worker session calls Lease and FoldBatch from
// one goroutine, so its explorer sees strict Next/Report alternation.
func (e *Engine) Lease(max int) []explore.Candidate {
	if max <= 0 {
		max = 1
	}
	e.exMu.Lock()
	defer e.exMu.Unlock()
	return e.leaseLocked(max)
}

// LeaseFor is a coordinator's lease, observed, sized and generated in
// one explorer-lock round. perTest, the lessee's per-test wall clock
// over its last lease (≤ 0 = none), folds into the latency average
// first. The lease is then n candidates, or with n ≤ 0 the adaptive
// size for managers live managers, and at most MaxWireBatch either way.
// It returns that size and, if generate, the candidates Lease would
// hand out for it.
//
// A coordinator's lessees queue on exMu behind each other's generation.
// Unlocking it readies the next one on this goroutine's processor,
// where it would wait until this goroutine blocks, after rendering and
// sending its lease; LeaseFor yields instead, so the next generation
// starts at once.
func (e *Engine) LeaseFor(perTest time.Duration, managers, n int, generate bool) (int, []explore.Candidate) {
	defer runtime.Gosched()
	e.exMu.Lock()
	defer e.exMu.Unlock()
	if perTest > 0 {
		if e.latEWMA == 0 {
			e.latEWMA = float64(perTest)
		} else {
			e.latEWMA += latencyAlpha * (float64(perTest) - e.latEWMA)
		}
	}
	if n <= 0 {
		n = e.adaptiveBatchLocked(managers)
	}
	n = min(n, MaxWireBatch)
	if !generate {
		return n, nil
	}
	return n, e.leaseLocked(n)
}

// leaseLocked generates up to n > 0 candidates for Lease and LeaseFor;
// callers hold e.exMu.
func (e *Engine) leaseLocked(n int) []explore.Candidate {
	if e.stopped.Load() {
		return nil
	}
	// Check the deadline here too, not only when folding: a session with
	// slow tests (or none finishing) must stop handing out work the
	// moment the TimeBudget elapses, not at the next fold.
	if !e.deadline.IsZero() && !e.cfg.clock.Now().Before(e.deadline) {
		e.stopped.Store(true)
		e.progressLocked()
		return nil
	}
	if e.cfg.Iterations > 0 {
		n = min(n, e.cfg.Iterations-e.committed)
	}
	if n <= 0 || e.exhausted {
		return nil
	}
	next := explore.BatchNext(e.explorer, n)
	if e.stopped.Load() {
		// Stopped during generation: the candidates were never leased,
		// journaled or counted — they live on in the explorer's
		// regenerable queued set — so drop them.
		return nil
	}
	e.committed += len(next)
	e.pending += len(next)
	if len(next) < n {
		e.exhausted = true
		e.progressLocked()
	}
	return next
}

// Unlease returns budget for n leased candidates that will never be
// executed (a worker shutting down mid-batch).
func (e *Engine) Unlease(n int) {
	e.exMu.Lock()
	defer e.exMu.Unlock()
	if n > e.pending {
		n = e.pending
	}
	e.pending -= n
	e.committed -= n
	e.progressLocked()
}

// progressLocked is called at every fold, Unlease and Stop and when
// the explorer runs dry, under exMu: it seals Done once the engine is
// stopped or owes nothing with the explorer dry or the budget committed.
func (e *Engine) progressLocked() {
	if e.stopped.Load() || e.pending == 0 && (e.exhausted || e.cfg.Iterations > 0 && e.committed >= e.cfg.Iterations) {
		e.seal.Do(func() { close(e.done) })
	}
}

// Fold folds one executed test back into shared state and the explorer:
// coverage accounting, impact scoring, result-quality feedback,
// tallying, redundancy clustering, and the Observe/Stop hooks.
// It returns true when the session should stop.
func (e *Engine) Fold(c explore.Candidate, rec Record, outcome prog.Outcome) bool {
	return e.FoldBatch([]ExecutedTest{{C: c, Rec: rec, Out: outcome}})
}

// ExecutedTest is one finished test awaiting folding.
type ExecutedTest struct {
	C   explore.Candidate
	Rec Record
	Out prog.Outcome
	// Pre carries the precompute stage's output (see Precompute). An
	// entry whose Pre is unset (the zero FoldPre) is precomputed by
	// FoldBatch itself before it takes the session lock.
	Pre FoldPre
}

// FoldPre is the output of the fold pipeline's precompute stage: the
// pure, per-test work that commit would otherwise do under the session
// lock. Executor workers fill it in parallel via Precompute; the commit
// stage consumes it and re-verifies anything the index may have
// invalidated in between, so results are identical to folding serially.
type FoldPre struct {
	// pointKey is the candidate's scenario key, shared by the seen
	// tally and the novelty seed within one fold; never empty once set.
	pointKey string
	// stackKey is the injection stack's exact-match encoding (injected
	// outcomes only), shared by the similarity memo and all cluster
	// adds.
	stackKey string
	// sim/simVersion hold the screened MaxSimilarity answer and the
	// similarity-index version it is exact for (feedback sessions
	// only); commit extends it over stacks added since via
	// ResolveSimilarity.
	sim        float64
	simVersion int
}

// Precompute runs the precompute stage of the fold pipeline for one
// executed test: scenario keying, injection-stack hashing, and the
// similarity screen against a read-mostly versioned view of the
// similarity index (shared-lock only, so any number of workers screen
// concurrently). It touches no mutable engine state and is safe to call
// from executor goroutines. FoldBatch precomputes any entry that skipped
// this stage, so calling it is an optimization, never a requirement.
func (e *Engine) Precompute(et *ExecutedTest) {
	pre := &et.Pre
	*pre = FoldPre{pointKey: et.C.Key()}
	if et.Out.Injected {
		pre.stackKey = cluster.StackKey(et.Out.InjectionStack)
		if e.cfg.Feedback {
			pre.sim, pre.simVersion = e.allStacks.PeekSimilarity(et.Out.InjectionStack, pre.stackKey)
		}
	}
}

// FoldBatch folds a batch of executed tests as a two-phase pipeline:
// first the precompute stage completes outside the session lock for any
// entry the executor did not already precompute (scenario keying, stack
// hashing, similarity screening — the expensive pure work), then the
// short commit stage runs under one lock acquisition (tally, cluster-ID
// assignment, explorer feedback, journal enqueue), re-verifying any
// screened similarity against stacks added since it was screened. The
// explorer is fed through its batched report fast path. Every executed
// test folds — observed outcomes are never discarded, even when a Stop
// condition or the deadline fires mid-batch (stopping only prevents
// further leases). It returns true when the session should stop. Only
// a batch that arrives after Finish — a remote manager reporting to a
// coordinator that already sealed — is dropped: the result is final.
//
// When a Store is attached, each completed record is handed to it in
// fold order (folds may come from concurrent RPC goroutines, so the
// session lock is what provides that order). Store implementations only
// enqueue here — journal encoding and file IO happen on the store's
// background writer, never on the fold path. Periodic session snapshots
// are captured as views under the lock and assembled for the store after
// it is released (see deliverSnapshot).
func (e *Engine) FoldBatch(batch []ExecutedTest) bool {
	if len(batch) == 0 {
		return false
	}
	for i := range batch {
		if batch[i].Pre.pointKey == "" {
			e.Precompute(&batch[i])
		}
	}
	stop, view := e.commitBatch(batch)
	if view != nil {
		e.deliverSnapshot(view)
	}
	return stop
}

// commitBatch is the fold pipeline's commit stage: everything that
// mutates session state, under one lock acquisition. It returns the
// captured session view when this batch crossed the snapshot cadence.
func (e *Engine) commitBatch(batch []ExecutedTest) (bool, *sessionView) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished {
		return true, nil
	}
	e.feedback = e.feedback[:0]
	stop := false
	for i := range batch {
		stopped, fb := e.foldLocked(&batch[i])
		e.feedback = append(e.feedback, fb)
		stop = stop || stopped
	}
	// The deadline is checked once per batch (a sequential session folds
	// batches of one, so its per-fold cadence is unchanged); Lease checks
	// it too, so a stopped-on-time session also stops handing out work.
	if !e.stopped.Load() && !e.deadline.IsZero() && !e.cfg.clock.Now().Before(e.deadline) {
		e.Stop()
		stop = true
	}
	// Explorer feedback and the pending decrement for the whole batch at
	// the batch boundary, under the explorer lock: a concurrent Lease's
	// generation waits only for this, and feedback order remains commit
	// order. Every candidate folds: the engine trusts its executors to
	// fold each lease once (a coordinator drops a late report from a
	// manager it has given up on before it gets here).
	e.exMu.Lock()
	explore.ReportBatch(e.explorer, e.feedback)
	clear(e.feedback)
	e.pending -= min(len(batch), e.pending)
	e.progressLocked()
	e.exMu.Unlock()
	var view *sessionView
	if e.cfg.Store != nil {
		// The completed records are the last len(batch) folds, in order.
		recs := e.res.Records[len(e.res.Records)-len(batch):]
		for i := range batch {
			e.cfg.Store.JournalRecord(batch[i].C, recs[i])
		}
		e.sinceSnap += len(batch)
		// The store encodes O(session) bytes per snapshot, so with the
		// default cadence the interval scales with session size
		// (amortized O(1) per fold); an explicit SnapshotEvery is
		// honored exactly — tests pin it to control resume fidelity.
		threshold := e.cfg.SnapshotEvery
		if e.adaptiveSnap {
			if t := e.res.Executed / 8; t > threshold {
				threshold = t
			}
		}
		if e.sinceSnap >= threshold {
			e.sinceSnap = 0
			view = e.sessionViewLocked()
		}
	}
	return stop, view
}

const (
	maxFoldedSets      = 1 << 20 // bounds Engine.foldedSets
	maxReservedRecords = 1 << 18 // bounds reserveRecords
)

// reserveRecords copies restored into a slice with room for the rest of
// the Iterations budget, reserved once instead of regrown at every
// doubling; capped, so a nominal budget of billions reserves megabytes.
func (e *Engine) reserveRecords(restored []Record) []Record {
	room := max(0, min(e.cfg.Iterations-e.res.base-len(restored), maxReservedRecords))
	return append(make([]Record, 0, len(restored)+room), restored...)
}

func (e *Engine) foldLocked(et *ExecutedTest) (bool, explore.Feedback) {
	c, rec, outcome, pre := et.C, et.Rec, et.Out, &et.Pre
	rec.ID = e.res.Executed
	rec.Outcome = outcome
	rec.Cluster = -1
	rec.Shard = -1
	if rec.Backend == "" {
		rec.Backend = e.backendName
	}
	if e.shardOf != nil {
		rec.Shard = e.shardOf(c.Point)
	}

	// Coverage accounting: count blocks first covered by this run. A set
	// already folded covers nothing first; sum 0 is never remembered.
	set := [2]uint64{outcome.BlockSum, uint64(len(outcome.Blocks))}
	if _, folded := e.foldedSets[set]; !folded {
		e.blockWalks++
		for b := range outcome.Blocks {
			if _, seen := e.covered[b]; !seen {
				e.covered[b] = struct{}{}
				e.coveredList = append(e.coveredList, b)
				rec.NewBlocks++
			}
			if _, isRec := e.recoverySet[b]; isRec {
				if _, have := e.recovered[b]; !have {
					e.recovered[b] = struct{}{}
					e.recoveredList = append(e.recoveredList, b)
				}
			}
		}
		if set[0] != 0 && len(e.foldedSets) < maxFoldedSets {
			e.foldedSets[set] = struct{}{}
		}
	}

	// Impact metric — the one scoring path shared by every deployment.
	rec.Impact, rec.Relevance = e.cfg.Impact.score(outcome, rec.NewBlocks, rec.Plan, rec.TestID)

	// Result-quality feedback (§7.4): scale fitness by dissimilarity to
	// everything seen so far, then remember this stack. The precompute
	// stage already screened the similarity against a versioned view of
	// the index; ResolveSimilarity extends that answer over any stacks
	// other folds added since the screen, so the value is exactly what a
	// serial MaxSimilarity would compute here.
	rec.Fitness = rec.Impact
	if outcome.Injected {
		if e.cfg.Feedback {
			sim := e.allStacks.ResolveSimilarity(outcome.InjectionStack, pre.stackKey, pre.sim, pre.simVersion)
			rec.Fitness = rec.Impact * cluster.FeedbackWeight(sim)
		}
		e.allStacks.AddKeyed(rec.ID, outcome.InjectionStack, pre.stackKey)
	}

	// Tally and cluster.
	e.res.Executed++
	if e.seen != nil {
		e.seen.Append(pre.pointKey)
	}
	if rec.Skipped {
		e.res.Holes++
	}
	if outcome.Injected {
		e.res.Injected++
	}
	newCluster := false
	if outcome.Injected && outcome.Failed {
		e.res.Failed++
		id, isNew := e.failClusters.AddKeyed(rec.ID, outcome.InjectionStack, pre.stackKey)
		rec.Cluster = id
		newCluster = isNew
		if outcome.Crashed {
			e.res.Crashed++
			e.crashClusters.AddKeyed(rec.ID, outcome.InjectionStack, pre.stackKey)
			if outcome.CrashID != "" {
				e.res.CrashIDs[outcome.CrashID]++
			}
		}
		if outcome.Hung {
			e.res.Hung++
		}
	}
	e.res.Records = append(e.res.Records, rec)

	fb := explore.Feedback{C: c, Impact: rec.Impact, Fitness: rec.Fitness, NewCluster: newCluster}

	if e.cfg.Observe != nil {
		e.cfg.Observe(rec)
	}
	if e.cfg.Stop != nil && e.cfg.Stop(e.snapshotLocked()) {
		e.Stop()
		return true, fb
	}
	return e.stopped.Load(), fb
}

// SetTargetName labels the result set for engines whose target runs
// remotely (a distributed coordinator never loads the program locally,
// so NewEngine could not pick the name up from Config.Target).
func (e *Engine) SetTargetName(name string) {
	e.mu.Lock()
	e.res.Target = name
	e.mu.Unlock()
}

// Waiting stays only because package bench names it and may change
// only in a [benchmark] PR: nothing else reads it, and ROADMAP item 7(f)
// removes it. It is always false — an empty Lease is never worth
// polling again: an outstanding lease folds or is unleased by its
// executor, and a lease lost with a remote manager is its coordinator's
// to re-lease.
func (e *Engine) Waiting() bool { return false }

// Wire-batch sizing: an adaptive lease batch targets WireBatchRound of
// execution wall clock per round trip, between 1 (a test slower than
// the round — a dead manager's lease is small) and MaxWireBatch (fast
// model/warm tests — amortization wins), and never more than a
// manager's share of the remaining budget. DefaultWireBatch is the size
// before any latency has been observed.
const (
	WireBatchRound   = 250 * time.Millisecond
	DefaultWireBatch = 32
	MaxWireBatch     = 512
)

// latencyAlpha is the EWMA smoothing factor of LeaseFor's latency
// average: recent leases dominate, so a target that warms up (or
// degrades) re-sizes leases within a few rounds.
const latencyAlpha = 0.2

// adaptiveBatchLocked is the adaptive lease size (DefaultWireBatch before
// any observed latency), capped at ⌈(Iterations − committed) /
// managers⌉ so that, at a session's start and its end, the managers
// sharing the budget each get a lease. Callers hold e.exMu.
func (e *Engine) adaptiveBatchLocked(managers int) int {
	n := DefaultWireBatch
	if e.latEWMA > 0 {
		n = min(max(int(float64(WireBatchRound)/e.latEWMA), 1), MaxWireBatch)
	}
	if left := e.cfg.Iterations - e.committed; e.cfg.Iterations > 0 && left > 0 {
		managers = max(managers, 1)
		n = min(n, (left+managers-1)/managers)
	}
	return n
}

// Stop ends the session: subsequent Lease calls return nil, one caught
// generating drops what it generated, and Done closes. In-flight tests
// may still fold. It waits out a generation in progress, so it must not
// be called from inside the explorer.
func (e *Engine) Stop() {
	e.stopped.Store(true)
	e.exMu.Lock()
	e.progressLocked()
	e.exMu.Unlock()
}

// Stopped reports whether the session has stopped handing out work.
func (e *Engine) Stopped() bool { return e.stopped.Load() }

// Done is closed once the engine will hand out nothing more and owes
// nothing: on Stop (by the caller, the Stop hook, or a Lease or fold
// past the deadline), at the fold that spends the Iterations budget, or
// at the last fold after the explorer ran dry.
func (e *Engine) Done() <-chan struct{} { return e.done }

// Snapshot returns the running tally.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

// snapshotLocked is Snapshot under e.mu.
func (e *Engine) snapshotLocked() Snapshot {
	cov := 0.0
	if e.cfg.Target != nil && e.cfg.Target.NumBlocks > 0 {
		cov = float64(len(e.covered)) / float64(e.cfg.Target.NumBlocks)
	}
	s := Snapshot{
		Executed:       e.res.Executed,
		Injected:       e.res.Injected,
		Failed:         e.res.Failed,
		Crashed:        e.res.Crashed,
		Hung:           e.res.Hung,
		NewCrashIDs:    len(e.res.CrashIDs),
		UniqueFailures: e.failClusters.Len(),
		Coverage:       cov,
		BlockSets:      len(e.foldedSets),
		BlockWalks:     e.blockWalks,
	}
	e.exMu.Lock()
	s.Pending = e.pending
	if e.latEWMA > 0 {
		s.AvgTestNS = int64(e.latEWMA)
		s.AdaptiveBatch = e.adaptiveBatchLocked(1)
	}
	if e.armStats != nil {
		s.Arms = e.armStats()
	}
	e.exMu.Unlock()
	if e.recycles != nil {
		s.PoolRecycles = e.recycles()
	}
	s.Snapshots = e.snapshots.Load()
	s.SnapshotNS = e.snapshotNS.Load()
	s.Resume = e.resume
	return s
}

// Finish seals and returns the result set: elapsed time, final
// sensitivities, unique-cluster counts and coverage fractions. It is
// idempotent; the first call fixes Elapsed and, when a Store is
// attached, emits the final session snapshot (serialized outside the
// session lock, like periodic ones).
func (e *Engine) Finish() *ResultSet {
	// Stop first, so nothing is handed out after the result is sealed.
	e.Stop()
	res, view, runner := e.finishLocked()
	if view != nil {
		e.deliverSnapshot(view)
	}
	if runner != nil {
		// Release the execution backend (the process pool waits out its
		// in-flight subprocesses). Engine executors are not used after
		// Finish.
		_ = runner.Close()
	}
	return res
}

func (e *Engine) finishLocked() (*ResultSet, *sessionView, backend.Runner) {
	e.mu.Lock()
	defer e.mu.Unlock()
	first := !e.finished
	if first {
		e.finished = true
		e.res.Elapsed = e.prevElapsed + e.cfg.clock.Now().Sub(e.start)
	}
	e.exMu.Lock()
	if e.cfg.Space != nil && len(e.cfg.Space.Spaces) > 0 {
		if sens := e.explorer.Sensitivities(0); sens != nil {
			e.res.Sensitivities = sens
		}
	}
	if e.armStats != nil {
		e.res.Arms = e.armStats()
	}
	e.exMu.Unlock()
	e.res.UniqueFailures = e.failClusters.Len()
	e.res.UniqueCrashes = e.crashClusters.Len()
	e.res.Blocks = len(e.covered)
	if e.cfg.Target != nil && e.cfg.Target.NumBlocks > 0 {
		e.res.Coverage = float64(len(e.covered)) / float64(e.cfg.Target.NumBlocks)
	}
	if len(e.recoverySet) > 0 {
		e.res.RecoveryCoverage = float64(len(e.recovered)) / float64(len(e.recoverySet))
	}
	e.res.failClusters = e.failClusters
	e.res.crashClusters = e.crashClusters
	var view *sessionView
	if first && e.cfg.Store != nil {
		view = e.sessionViewLocked()
	}
	var runner backend.Runner
	if first {
		runner = e.runner
	}
	return e.res, view, runner
}

// LocalExecutor returns the engine's own executor: scenarios convert
// through the injector plugin and run on the session's execution
// backend — in-process against Config.Target for "model", as real
// supervised subprocesses of Config.Command for "process". It is what
// RunLocal drives, exposed so callers can wrap it (e.g. throughput
// benchmarks emulating wall-clock-bound tests). It requires an engine
// with a backend runner; engines with neither Target nor Command
// (distributed coordinators) must drive RunWith with their own
// Executor.
func (e *Engine) LocalExecutor() Executor {
	if e.runner == nil {
		panic("core: engine has no execution backend; set Target or Command, or drive RunWith with a custom Executor")
	}
	return &BackendExecutor{Runner: e.runner, Convert: e.convert}
}

// Backend returns the registered name of the engine's execution backend
// ("" for coordinator-style engines that execute nothing themselves).
func (e *Engine) Backend() string { return e.backendName }

// convert renders a candidate as its record and the test it arms. A
// scenario the injector cannot express is a hole in practice: ok is
// false and the record a zero-impact run, marked Skipped so the result
// set can tally it. (With spaces built by package trace this cannot
// happen; custom spaces may include e.g. functions the injector lacks.)
func (e *Engine) convert(c explore.Candidate) (rec Record, t backend.Test, ok bool) {
	// The scenario text is rendered once, and the plan read from views
	// of it: the text and the plan are all a conversion allocates.
	var stack [16]string
	sub, vals := c.Point.Sub, stack[:]
	if n := len(e.axisNames[sub]); n > len(stack) {
		vals = make([]string, n)
	}
	rec = Record{Point: c.Point, Scenario: dsl.Render(e.cfg.Space, e.axisNames[sub], c.Point, vals), Backend: e.backendName}
	pt, plan, err := e.forms[sub].Convert(vals)
	if err != nil {
		rec.Skipped = true
		return rec, t, false
	}
	rec.TestID, rec.Plan = pt.TestID, plan
	return rec, backend.Test{TestID: pt.TestID, Plan: plan}, true
}

// BackendExecutor runs candidates on an execution backend: Convert
// renders one as its record and the test it arms (ok false: a hole,
// folded as the Skipped record it returned). The worker loop hands it a
// lease whole, so a backend.Batcher arms the batch at once. The engine's
// own executor and a remote node manager's are both one; neither
// touches shared engine state, so they run outside the session lock.
type BackendExecutor struct {
	Runner  backend.Runner
	Convert func(explore.Candidate) (Record, backend.Test, bool)
}

func (l *BackendExecutor) Execute(c explore.Candidate) (Record, prog.Outcome) {
	rec, t, ok := l.Convert(c)
	if !ok {
		return rec, prog.Outcome{}
	}
	outcome, ex := l.Runner.Run(t.TestID, t.Plan)
	rec.Backend, rec.ExitStatus, rec.Duration = ex.Backend, ex.ExitStatus, ex.Duration
	return rec, outcome
}

// armed is a worker loop's executeBatch buffers: tests[j] arms cands[at[j]] with recs[j].
type armed struct {
	recs  []Record
	tests []backend.Test
	at    []int
}

// executeBatch is Execute for a whole lease: every candidate converts
// first, then the convertible ones run as one backend batch, each
// emitted as it ends.
func (l *BackendExecutor) executeBatch(cands []explore.Candidate, a *armed, emit func(i int, rec Record, out prog.Outcome)) {
	for i, c := range cands {
		rec, t, ok := l.Convert(c)
		if !ok {
			emit(i, rec, prog.Outcome{})
			continue
		}
		a.recs, a.tests, a.at = append(a.recs, rec), append(a.tests, t), append(a.at, i)
	}
	backend.RunBatch(l.Runner, a.tests, func(j int, out prog.Outcome, ex backend.Exec) {
		rec := a.recs[j]
		rec.Backend, rec.ExitStatus, rec.Duration = ex.Backend, ex.ExitStatus, ex.Duration
		emit(a.at[j], rec, out)
	})
	clear(a.recs)
	clear(a.tests)
	a.recs, a.tests, a.at = a.recs[:0], a.tests[:0], a.at[:0]
}

// RunLocal drives the engine to completion with its backend executor
// and returns the sealed result set.
func (e *Engine) RunLocal() *ResultSet {
	e.RunWith(e.LocalExecutor())
	return e.Finish()
}

// foldEvery bounds how long a worker sits on finished results of a
// lease batch it is still executing: on a slow target a result journals
// and reaches the Observe/Stop hooks when it finishes, not when its
// batch-mates do.
const foldEvery = 50 * time.Millisecond

// RunWith drives the engine to completion against an arbitrary
// executor: Config.Workers copies of the worker loop leasing
// Config.Batch candidates at a time. Workers <= 1 runs the loop on the
// calling goroutine with a batch of one, so the explorer observes
// strict Next/Report alternation and the session is bit-for-bit
// reproducible.
func (e *Engine) RunWith(exec Executor) {
	if e.cfg.Workers <= 1 {
		work(e, e.cfg.clock, exec, 1, nil)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(e, e.cfg.clock, exec, e.cfg.Batch, nil)
		}()
	}
	wg.Wait()
}

// Work is the worker loop over any lease source, timed by the wall
// clock: what a remote node manager runs against its coordinator.
func Work(src Source, exec Executor, batch int, observe func(perTest time.Duration)) {
	work(src, wallClock{}, exec, batch, observe)
}

// work is the worker loop: lease a batch, execute it lock-free, fold it
// (an engine's FoldBatch precomputes outside the session lock), until
// the source has nothing more to hand out. Every executed result folds,
// stopped or not: stopping ends leasing, not accounting. A non-nil
// observe takes each executed lease's wall clock per test. Its buffers
// are reused lease after lease, cleared so they keep nothing alive.
func work(src Source, clk clock, exec Executor, batch int, observe func(time.Duration)) {
	var (
		cands  []explore.Candidate
		left   int // of cands, not yet emitted
		folded time.Time
		done   = make([]ExecutedTest, 0, batch)
		bufs   armed
	)
	emit := func(i int, rec Record, out prog.Outcome) {
		done = append(done, ExecutedTest{C: cands[i], Rec: rec, Out: out})
		if left--; left > 0 && clk.Now().Sub(folded) >= foldEvery {
			src.FoldBatch(done)
			clear(done)
			done = done[:0]
			folded = clk.Now()
		}
	}
	for {
		cands = src.Lease(batch)
		if len(cands) == 0 {
			return
		}
		began := clk.Now()
		left, folded = len(cands), began
		execute(src, exec, cands, &bufs, emit)
		if observe != nil {
			observe(clk.Now().Sub(began) / time.Duration(len(cands)))
		}
		src.FoldBatch(done)
		clear(done)
		done = done[:0]
	}
}

// execute runs a leased batch and emits each result as it ends. A
// backend executor takes a batch whole, so the backend can arm it at
// once; any other Executor, and a batch of one, runs candidate by
// candidate. A stop is honoured before anything is armed — the
// candidates not started are unleased — and what is armed runs out.
func execute(src Source, exec Executor, cands []explore.Candidate, bufs *armed, emit func(i int, rec Record, out prog.Outcome)) {
	if l, ok := exec.(*BackendExecutor); ok && len(cands) > 1 {
		if src.Stopped() {
			src.Unlease(len(cands))
			return
		}
		l.executeBatch(cands, bufs, emit)
		return
	}
	for i, c := range cands {
		if src.Stopped() {
			src.Unlease(len(cands) - i)
			return
		}
		rec, out := exec.Execute(c)
		emit(i, rec, out)
	}
}
