package main

// Local sessions: one engine in this process, driven either through the
// product's own loop (afex.NewSession → Engine.RunWith → Finish → store
// Close, which is what afex.Explore does) or, traced, through the
// benchmark's own Lease → Execute → Precompute → FoldBatch loop with a
// span around every call.

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"afex"
	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/prog"
	"afex/internal/store"
)

// repMode selects how one repetition runs.
type repMode int

const (
	// modePlain is untraced, through the product's own loop: the source
	// of every end-to-end number.
	modePlain repMode = iota
	// modeProbe is untraced with the outside probes that cost something
	// (the byte-counting proxy of rpc-loopback); workloads without one
	// run it as modePlain.
	modeProbe
	// modeTraced is the benchmark's own loop with spans.
	modeTraced
)

// repResult is what one repetition measured and checked.
type repResult struct {
	scenarios int
	use       usage
	clusters  int
	// attempted and failed count operations: every scenario that should
	// have folded, and every one that did not fold exactly once, is
	// missing or doubled in the journal, or contradicts the oracle.
	attempted, failed int
	notes             []string
	// digest identifies the search of a deterministic session.
	digest string
	// probeOnly marks a repetition whose timing includes a probe and so
	// stays out of the rate figures.
	probeOnly bool
	// on is the machine around the repetition (speedometer).
	on    machine
	layer map[string]float64
	spans map[string]spanTotals
}

func (r *repResult) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// fixture is a set-up workload: it runs repetitions until closed.
type fixture interface {
	rep(mode repMode) (*repResult, error)
	close() error
}

// localFixture is a set-up local-session workload.
type localFixture struct {
	env  *benchEnv
	name string
	// cfg is the session's configuration minus persistence; journal
	// names the journal format ("" = no store).
	cfg     core.Config
	budget  int
	journal string
	// stamp, when set, replaces every outcome with a synthetic one
	// through the core.Executor seam.
	stamp *stamper
	// deterministic sessions must repeat their digest exactly.
	deterministic bool
	firstDigest   string
	// oracle is the workload's own outcome check.
	oracle func(res *core.ResultSet, r *repResult)
	// cleanup releases what set-up built.
	cleanup func() error
}

func (f *localFixture) close() error {
	if f.cleanup != nil {
		return f.cleanup()
	}
	return nil
}

func (f *localFixture) rep(mode repMode) (*repResult, error) {
	dir := ""
	if f.journal != "" {
		dir = f.env.freshDir(f.name)
		defer os.RemoveAll(dir)
	}
	var (
		r   *repResult
		res *core.ResultSet
		err error
	)
	if mode == modeTraced {
		r, res, err = f.runTraced(dir)
	} else {
		r, res, err = f.runPlain(dir)
	}
	if err != nil {
		return nil, err
	}
	f.verify(res, dir, r)
	return r, nil
}

// warmShare is the part of its budget a workload's warm-up session
// runs: set-up ends with one short untimed session, so that the first
// timed repetition finds the code paths faulted in, the heap grown and
// the scratch file system touched, like every later one — and so that
// set-up time is tens of milliseconds of real work, not microseconds of
// timer jitter.
const warmShare = 25

// warmUp runs the warm-up session of a local workload.
func (f *localFixture) warmUp() error {
	full := f.budget
	f.budget = max(1, full/warmShare)
	defer func() { f.budget = full }()
	dir := ""
	if f.journal != "" {
		dir = f.env.freshDir(f.name + "-warm")
		defer os.RemoveAll(dir)
	}
	_, _, err := f.runPlain(dir)
	return err
}

func (f *localFixture) options(dir string) core.Config {
	opts := f.cfg
	opts.Iterations = f.budget
	opts.StateDir = dir
	opts.JournalFormat = f.journal
	return opts
}

// runPlain is the untraced session: construction through Finish and
// store Close on the clock.
func (f *localFixture) runPlain(dir string) (*repResult, *core.ResultSet, error) {
	m := startMeter()
	eng, closeStore, err := afex.NewSession(f.options(dir))
	if err != nil {
		return nil, nil, err
	}
	exec := eng.LocalExecutor()
	if f.stamp != nil {
		exec = f.stamp.wrap(exec)
	}
	eng.RunWith(exec)
	res := eng.Finish()
	if err := closeStore(); err != nil {
		return nil, nil, fmt.Errorf("state store: %w", err)
	}
	r := &repResult{use: m.stop(), layer: map[string]float64{}}
	return r, res, nil
}

// replayEvent is one folded outcome as the cluster layer saw it.
type replayEvent struct {
	stack           []string
	injected        bool
	failed, crashed bool
}

func eventOf(out prog.Outcome) replayEvent {
	return replayEvent{stack: out.InjectionStack, injected: out.Injected, failed: out.Failed, crashed: out.Crashed}
}

// tracedLoop is the benchmark's own worker loop. Every worker leases,
// executes, precomputes and commits its own batches (the product's
// parallel loop hands commits to one reducer; the engine calls are the
// same). It returns the lease-call tallies and the outcomes in the
// order the workers produced them.
func tracedLoop(eng *core.Engine, exec core.Executor, workers, batch int, tr *tracer) (leases, empty int64, events []replayEvent) {
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		nLease  atomic.Int64
		nEmpty  atomic.Int64
		perWork = make([][]replayEvent, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer tr.end(spWorker, time.Now())
			buf := make([]core.ExecutedTest, 0, batch)
			for !stop.Load() {
				t := time.Now()
				cands := eng.Lease(batch)
				tr.end(spLease, t)
				nLease.Add(1)
				if len(cands) == 0 {
					nEmpty.Add(1)
					if eng.Waiting() {
						runtime.Gosched()
						continue
					}
					return
				}
				buf = buf[:0]
				for _, c := range cands {
					t = time.Now()
					rec, out := exec.Execute(c)
					tr.end(spExecute, t)
					et := core.ExecutedTest{C: c, Rec: rec, Out: out}
					t = time.Now()
					eng.Precompute(&et)
					tr.end(spPrecompute, t)
					buf = append(buf, et)
					perWork[w] = append(perWork[w], eventOf(out))
				}
				t = time.Now()
				stopped := eng.FoldBatch(buf)
				tr.end(spCommit, t)
				if stopped {
					stop.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, ev := range perWork {
		events = append(events, ev...)
	}
	return nLease.Load(), nEmpty.Load(), events
}

// runTraced is the traced session: the same construction with the
// explorer, the store and the execution backend wrapped, then the
// benchmark's own loop.
func (f *localFixture) runTraced(dir string) (*repResult, *core.ResultSet, error) {
	tr := &tracer{}
	m := startMeter()
	cfg := f.options(dir)
	closeStore := func() error { return nil }
	var ts *tracedStore
	if dir != "" {
		t := time.Now()
		st, err := store.OpenOptions(dir, store.Options{Format: cfg.JournalFormat, TailResume: cfg.Resume})
		if err != nil {
			return nil, nil, err
		}
		tr.end(spStoreOpen, t)
		t = time.Now()
		if err := st.Attach(&cfg); err != nil {
			st.Close()
			return nil, nil, err
		}
		tr.end(spStoreRecover, t)
		ts = &tracedStore{in: cfg.Store, tr: tr}
		cfg.Store = ts
		closeStore = st.Close
	}
	t := time.Now()
	inner, err := explore.New(cfg.Algorithm, cfg.Space, cfg.Explore)
	if err != nil {
		closeStore()
		return nil, nil, err
	}
	ex := &tracedExplorer{in: inner, tr: tr}
	innerBackend := backend.Model
	if cfg.Command != nil {
		innerBackend = backend.Process
	}
	cfg.Backend = registerTracedBackend(innerBackend, tr)
	eng, err := core.NewEngine(cfg, ex)
	if err != nil {
		closeStore()
		return nil, nil, err
	}
	tr.end(spConstruct, t)
	exec := eng.LocalExecutor()
	if f.stamp != nil {
		exec = f.stamp.wrap(exec)
	}
	workers, batch := cfg.Workers, cfg.Batch
	if workers <= 1 {
		workers, batch = 1, 1 // the sequential session leases one at a time
	} else if batch <= 0 {
		batch = core.DefaultBatch
	}
	leases, empty, events := tracedLoop(eng, exec, workers, batch, tr)
	// Child spans up to here belong to the loop, later ones to Finish.
	loopState, loopSnap := tr.total(spExploreState), tr.total(spStoreSnapshot)
	t = time.Now()
	res := eng.Finish()
	tr.end(spFinish, t)
	t = time.Now()
	if err := closeStore(); err != nil {
		return nil, nil, fmt.Errorf("state store: %w", err)
	}
	tr.end(spStoreClose, t)
	r := &repResult{use: m.stop(), layer: map[string]float64{}, spans: tr.export()}

	n := float64(res.Executed)
	if n == 0 {
		return nil, nil, fmt.Errorf("traced session executed nothing")
	}
	perScenario := func(d time.Duration) float64 { return float64(d) / n }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var snapshots []int
	if ts != nil {
		snapshots = ts.snapshots
	}
	cl := replayCluster(events, cfg.Feedback, cfg.ClusterThreshold, snapshots)

	next, report := tr.total(spExploreNext), tr.total(spExploreReport)
	run, spawn := tr.total(spBackendRun), tr.total(spBackendSpawn)
	enqueue := tr.total(spStoreEnqueue)
	leaseSelf := tr.total(spLease) - next
	executeSelf := tr.total(spExecute) - run
	precompute := tr.total(spPrecompute)
	commitSelf := tr.total(spCommit) - report - enqueue - loopState - loopSnap
	finishSelf := tr.total(spFinish) - (tr.total(spExploreState) - loopState) - (tr.total(spStoreSnapshot) - loopSnap)
	constructSelf := tr.total(spConstruct) - spawn

	l := r.layer
	l["explore.next_ns_per_scenario"] = perScenario(next)
	l["explore.report_ns_per_scenario"] = perScenario(report)
	if ex.generated > 0 {
		l["explore.skip_ratio"] = float64(ex.skipped) / float64(ex.generated)
	}
	l["core.lease_self_ns_per_scenario"] = perScenario(leaseSelf)
	l["core.execute_self_ns_per_scenario"] = perScenario(executeSelf)
	l["core.precompute_ns_per_scenario"] = perScenario(precompute)
	l["core.commit_self_ns_per_scenario"] = perScenario(commitSelf)
	l["core.lease_empty_ratio"] = float64(empty) / float64(leases)
	l["core.finish_ms"] = ms(tr.total(spFinish))
	l["backend.run_ns_per_scenario"] = perScenario(run)
	l["backend.child_cpu_us_per_scenario"] = float64(r.use.childCPU) / float64(time.Microsecond) / n
	l["backend.respawns"] = float64(tr.respawns.Load())
	l["backend.recycles"] = float64(tr.recycles.Load())
	l["backend.spawn_ms"] = ms(spawn)
	cl.report(l, n)
	l["store.enqueue_ns_per_scenario"] = perScenario(enqueue)
	l["store.snapshot_ms"] = ms(tr.total(spStoreSnapshot))
	l["store.snapshots"] = float64(tr.count(spStoreSnapshot))
	l["store.close_ms"] = ms(tr.total(spStoreClose))

	// Attribution: how much of the time the workers and the serial
	// phases had is covered by a span.
	serial := tr.total(spStoreOpen) + tr.total(spStoreRecover) + tr.total(spConstruct) + tr.total(spFinish) + tr.total(spStoreClose)
	covered := tr.total(spLease) + tr.total(spExecute) + tr.total(spPrecompute) + tr.total(spCommit) + serial
	l["trace.attribution_ratio"] = float64(covered) / float64(tr.total(spWorker)+serial)

	// The buried cluster layer is carved out of the two core spans that
	// contain it, never more than they hold.
	probe := min(cl.probe, precompute)
	add := min(cl.add, commitSelf)
	export := min(cl.export, commitSelf-add+finishSelf)
	shares(l, map[string]time.Duration{
		"explore": next + report + tr.total(spExploreState),
		"core":    constructSelf + leaseSelf + executeSelf + (precompute - probe) + (commitSelf + finishSelf - add - export),
		"backend": run + spawn,
		"cluster": probe + add + export,
		"store":   tr.total(spStoreOpen) + tr.total(spStoreRecover) + enqueue + tr.total(spStoreSnapshot) + tr.total(spStoreClose),
	})
	return r, res, nil
}

// shares writes each layer's part of the summed self time.
func shares(l map[string]float64, self map[string]time.Duration) {
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total <= 0 {
		return
	}
	for name, d := range self {
		l["share."+name] = float64(d) / float64(total)
	}
}

// verify runs the oracles every session workload shares: the budget
// landed exactly, no scenario key folded twice, synthetic outcomes are
// the stamped ones, the journal re-reads to exactly the executed
// records, and a deterministic session repeats its digest.
func (f *localFixture) verify(res *core.ResultSet, dir string, r *repResult) {
	r.scenarios = res.Executed
	r.clusters = res.UniqueFailures
	r.attempted = f.budget
	r.fail(abs(res.Executed-f.budget), "executed %d scenarios, budget %d", res.Executed, f.budget)
	r.fail(abs(len(res.Records)-res.Executed), "%d records for %d executed", len(res.Records), res.Executed)

	seen := make(map[string]struct{}, len(res.Records))
	keys := make([]string, len(res.Records))
	digest := newRecordDigest()
	dups, wrong := 0, 0
	for i := range res.Records {
		rec := &res.Records[i]
		key := rec.Point.Key()
		keys[i] = key
		if _, dup := seen[key]; dup {
			dups++
		}
		seen[key] = struct{}{}
		digest.add(key, rec)
		if f.stamp != nil && !f.stamp.matches(rec) {
			wrong++
		}
	}
	r.fail(dups, "%d scenario keys folded twice", dups)
	r.fail(wrong, "%d outcomes differ from the stamped ones", wrong)
	r.digest = digest.sum()
	if f.deterministic {
		if f.firstDigest == "" {
			f.firstDigest = r.digest
		} else if r.digest != f.firstDigest {
			r.fail(res.Executed, "records digest %s, first repetition had %s", r.digest, f.firstDigest)
		}
	}
	if f.oracle != nil {
		f.oracle(res, r)
	}
	if dir == "" {
		return
	}
	entries, err := store.ReadJournal(dir)
	if err != nil {
		r.fail(res.Executed, "journal re-read: %v", err)
		return
	}
	r.fail(abs(len(entries)-res.Executed), "journal holds %d entries for %d executed", len(entries), res.Executed)
	bad := 0
	for i := range entries {
		if i >= len(keys) {
			break
		}
		if entries[i].Seq != i || entries[i].Key() != keys[i] {
			bad++
		}
	}
	r.fail(bad, "%d journal entries out of place", bad)
	if n, err := dirBytes(dir); err == nil && res.Executed > 0 {
		r.layer["store.journal_bytes_per_scenario"] = float64(n) / float64(res.Executed)
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
