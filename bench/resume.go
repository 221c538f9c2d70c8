package main

// resume-tail: the read side of the store. Set-up journals a killed
// session — a binary state directory whose last snapshot sits a few
// hundred entries before the journal's end. One repetition resumes it
// resumesPerRep times, each on its own copy made off the clock (open →
// Recover → engine restore → first Lease, then a short continuation to
// prove the resume is live, Finish and Close), and reads the whole
// journal once.

import (
	"fmt"
	"os"
	"time"

	"afex"
	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/store"
)

const (
	resumeEntries      = 100000 // journaled before the kill
	resumeTailMax      = 512    // the last snapshot is at most this far from the end
	resumeContinuation = 2000   // scenarios executed after each resume
	resumesPerRep      = 3
)

type resumeFixture struct {
	env   *benchEnv
	cfg   core.Config
	stamp *stamper
	// state is the pristine killed-session directory; journaled holds
	// its scenario keys, entries their count.
	state     string
	journaled map[string]struct{}
	entries   int
	tail      int
	more      int
}

// setupResumeTail journals the killed session: tinyTarget with stamped
// outcomes under the random strategy, snapshots pinned so the last one
// lands resumeTailMax or fewer entries before the end, and no Finish —
// which is what a SIGKILL after the last journal flush leaves behind.
func setupResumeTail(env *benchEnv, seed int64) (fixture, error) {
	f := &resumeFixture{
		env: env,
		cfg: core.Config{
			Target:    tinyTarget(),
			Space:     tinySpace(),
			Algorithm: afex.Random,
			Workers:   1,
			Explore:   explore.Config{Seed: seed},
		},
		stamp:   newStamper(seed),
		state:   env.freshDir("killed"),
		entries: env.scaled(resumeEntries),
		more:    env.scaled(resumeContinuation),
	}
	tail := f.entries / 500
	if tail < 1 {
		tail = 1
	}
	cfg := f.cfg
	cfg.Iterations = f.entries
	cfg.SnapshotEvery = (f.entries - tail) / 3
	st, err := store.OpenOptions(f.state, store.Options{Format: store.FormatBinary})
	if err != nil {
		return nil, err
	}
	if err := st.Attach(&cfg); err != nil {
		st.Close()
		return nil, err
	}
	eng, err := core.NewEngine(cfg, nil)
	if err != nil {
		st.Close()
		return nil, err
	}
	eng.RunWith(f.stamp.wrap(eng.LocalExecutor()))
	// No Finish: the session dies here. Close flushes what the writer
	// had queued, as the kernel would have for a killed process.
	if err := st.Close(); err != nil {
		return nil, err
	}
	stats, err := afex.ReadStateStats(f.state)
	if err != nil {
		return nil, err
	}
	if stats.Entries != f.entries || !stats.HasSnapshot || stats.TailEntries < 1 || stats.TailEntries > resumeTailMax {
		return nil, fmt.Errorf("bench: killed session has %d entries, snapshot %v at %d, tail %d; want %d entries and a tail in [1,%d]",
			stats.Entries, stats.HasSnapshot, stats.SnapshotSeq, stats.TailEntries, f.entries, resumeTailMax)
	}
	f.tail = stats.TailEntries
	journal, err := store.ReadJournal(f.state)
	if err != nil {
		return nil, err
	}
	f.journaled = make(map[string]struct{}, len(journal))
	for i := range journal {
		f.journaled[journal[i].Key()] = struct{}{}
	}
	if len(f.journaled) != f.entries {
		return nil, fmt.Errorf("bench: killed session journals %d distinct keys in %d entries", len(f.journaled), f.entries)
	}
	return f, nil
}

func (f *resumeFixture) close() error { return os.RemoveAll(f.state) }

func (f *resumeFixture) rep(mode repMode) (*repResult, error) {
	r := &repResult{layer: map[string]float64{}}
	tr := &tracer{}
	var resumeMS, recoverMS []float64
	var sessions time.Duration
	for i := 0; i < resumesPerRep; i++ {
		dir := f.env.freshDir("resume")
		if err := copyDir(f.state, dir); err != nil {
			return nil, err
		}
		var (
			u   usage
			res *core.ResultSet
			err error
		)
		var first, recovered time.Duration
		if mode == modeTraced {
			u, res, first, recovered, err = f.resumeTraced(dir, tr)
			recoverMS = append(recoverMS, float64(recovered)/float64(time.Millisecond))
		} else {
			u, res, first, err = f.resumePlain(dir)
		}
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		f.verify(res, dir, r)
		os.RemoveAll(dir)
		resumeMS = append(resumeMS, float64(first)/float64(time.Millisecond))
		sessions += u.wall
		r.use.wall += u.wall
		r.use.cpu += u.cpu
		r.use.allocBytes += u.allocBytes
	}
	r.layer["store.resume_ms"] = median(resumeMS)
	r.layer["store.resume_tail_entries"] = float64(f.tail)

	t := time.Now()
	journal, err := store.ReadJournal(f.state)
	if err != nil {
		return nil, err
	}
	r.layer["store.read_entries_per_s"] = float64(len(journal)) / time.Since(t).Seconds()
	r.attempted += f.entries
	r.fail(abs(len(journal)-f.entries), "journal scan read %d entries, want %d", len(journal), f.entries)

	if mode == modeTraced {
		f.layerMetrics(r, tr, sessions, median(recoverMS))
	}
	return r, nil
}

// options is the resumed session's configuration: the killed session's,
// continued for more scenarios with the explorer state restored.
func (f *resumeFixture) options(dir string) core.Config {
	opts := f.cfg
	opts.Iterations = f.entries + f.more
	opts.StateDir = dir
	opts.JournalFormat = store.FormatBinary
	opts.Resume = true
	return opts
}

// resumePlain resumes through afex.NewSession. first is open → Recover
// → engine restore → first Lease returned.
func (f *resumeFixture) resumePlain(dir string) (u usage, res *core.ResultSet, first time.Duration, err error) {
	m := startMeter()
	eng, closeStore, err := afex.NewSession(f.options(dir))
	if err != nil {
		return u, nil, 0, err
	}
	exec := f.stamp.wrap(eng.LocalExecutor())
	restored := eng.Snapshot().Executed
	cands := eng.Lease(1)
	first = time.Since(m.start)
	if len(cands) != 1 {
		closeStore()
		return u, nil, 0, fmt.Errorf("bench: resumed session leased %d candidates", len(cands))
	}
	rec, out := exec.Execute(cands[0])
	eng.Fold(cands[0], rec, out)
	eng.RunWith(exec)
	res = eng.Finish()
	if err := closeStore(); err != nil {
		return u, nil, 0, fmt.Errorf("state store: %w", err)
	}
	u = m.stop()
	if restored != f.entries {
		return u, nil, 0, fmt.Errorf("bench: restored counters say %d executed, the journal holds %d", restored, f.entries)
	}
	return u, res, first, nil
}

// resumeTraced is the same resume with every step spanned.
func (f *resumeFixture) resumeTraced(dir string, tr *tracer) (u usage, res *core.ResultSet, first, recovered time.Duration, err error) {
	m := startMeter()
	cfg := f.options(dir)
	t := time.Now()
	st, err := store.OpenOptions(dir, store.Options{Format: cfg.JournalFormat, TailResume: true})
	if err != nil {
		return u, nil, 0, 0, err
	}
	tr.end(spStoreOpen, t)
	t = time.Now()
	if err := st.Attach(&cfg); err != nil {
		st.Close()
		return u, nil, 0, 0, err
	}
	recovered = time.Since(t)
	tr.end(spStoreRecover, t)
	cfg.Store = &tracedStore{in: cfg.Store, tr: tr}
	t = time.Now()
	inner, err := explore.New(cfg.Algorithm, cfg.Space, cfg.Explore)
	if err != nil {
		st.Close()
		return u, nil, 0, 0, err
	}
	cfg.Backend = registerTracedBackend(backend.Model, tr)
	eng, err := core.NewEngine(cfg, &tracedExplorer{in: inner, tr: tr})
	if err != nil {
		st.Close()
		return u, nil, 0, 0, err
	}
	tr.end(spConstruct, t)
	restored := eng.Snapshot().Executed
	exec := f.stamp.wrap(eng.LocalExecutor())
	t = time.Now()
	cands := eng.Lease(1)
	tr.end(spLease, t)
	first = time.Since(m.start)
	if len(cands) != 1 {
		st.Close()
		return u, nil, 0, 0, fmt.Errorf("bench: resumed session leased %d candidates", len(cands))
	}
	t = time.Now()
	rec, out := exec.Execute(cands[0])
	tr.end(spExecute, t)
	t = time.Now()
	eng.Fold(cands[0], rec, out)
	tr.end(spCommit, t)
	tracedLoop(eng, exec, 1, 1, tr)
	t = time.Now()
	res = eng.Finish()
	tr.end(spFinish, t)
	t = time.Now()
	if err := st.Close(); err != nil {
		return u, nil, 0, 0, fmt.Errorf("state store: %w", err)
	}
	tr.end(spStoreClose, t)
	u = m.stop()
	if restored != f.entries {
		return u, nil, 0, 0, fmt.Errorf("bench: restored counters say %d executed, the journal holds %d", restored, f.entries)
	}
	return u, res, first, recovered, nil
}

// layerMetrics writes the per-layer figures of a traced repetition:
// tr holds the spans of all its resumes, sessions their summed wall.
func (f *resumeFixture) layerMetrics(r *repResult, tr *tracer, sessions time.Duration, recoverMS float64) {
	n := float64(resumesPerRep * f.more)
	perScenario := func(d time.Duration) float64 { return float64(d) / n }
	perResume := func(d time.Duration) float64 {
		return float64(d) / float64(time.Millisecond) / resumesPerRep
	}
	next, report, state := tr.total(spExploreNext), tr.total(spExploreReport), tr.total(spExploreState)
	run, spawn := tr.total(spBackendRun), tr.total(spBackendSpawn)
	enqueue, snapshot := tr.total(spStoreEnqueue), tr.total(spStoreSnapshot)
	l := r.layer
	l["store.recover_ms"] = recoverMS
	l["explore.next_ns_per_scenario"] = perScenario(next)
	l["explore.report_ns_per_scenario"] = perScenario(report)
	l["core.lease_self_ns_per_scenario"] = perScenario(tr.total(spLease) - next)
	l["core.execute_self_ns_per_scenario"] = perScenario(tr.total(spExecute) - run)
	l["core.precompute_ns_per_scenario"] = perScenario(tr.total(spPrecompute))
	l["core.commit_self_ns_per_scenario"] = perScenario(tr.total(spCommit) - report - enqueue)
	l["core.finish_ms"] = perResume(tr.total(spFinish))
	l["backend.run_ns_per_scenario"] = perScenario(run)
	l["backend.spawn_ms"] = perResume(spawn)
	l["store.enqueue_ns_per_scenario"] = perScenario(enqueue)
	l["store.snapshot_ms"] = perResume(snapshot)
	l["store.snapshots"] = float64(tr.count(spStoreSnapshot)) / resumesPerRep
	l["store.close_ms"] = perResume(tr.total(spStoreClose))
	r.spans = tr.export()
	covered := tr.total(spStoreOpen) + tr.total(spStoreRecover) + tr.total(spConstruct) + tr.total(spLease) +
		tr.total(spExecute) + tr.total(spPrecompute) + tr.total(spCommit) + tr.total(spFinish) + tr.total(spStoreClose)
	l["trace.attribution_ratio"] = float64(covered) / float64(sessions)
	// Snapshots and state exports happen in Finish here (the short
	// continuation never reaches the periodic cadence).
	shares(l, map[string]time.Duration{
		"explore": next + report + state,
		"core": tr.total(spConstruct) - spawn + tr.total(spLease) - next + tr.total(spExecute) - run +
			tr.total(spPrecompute) + tr.total(spCommit) - report - enqueue + tr.total(spFinish) - state - snapshot,
		"backend": run + spawn,
		"store":   tr.total(spStoreOpen) + tr.total(spStoreRecover) + enqueue + snapshot + tr.total(spStoreClose),
	})
}

// verify: the resumed session ran exactly the continuation on top of
// the restored journal, never re-executed a journaled key, stamped the
// right outcomes, and its journal re-reads to entries plus
// continuation.
func (f *resumeFixture) verify(res *core.ResultSet, dir string, r *repResult) {
	want := f.entries + f.more
	r.scenarios += res.Executed - f.entries
	r.clusters = res.UniqueFailures
	r.attempted += f.more
	r.fail(abs(res.Executed-want), "resumed session ended at %d executed, want %d", res.Executed, want)
	again, wrong, continued := 0, 0, 0
	for i := range res.Records {
		rec := &res.Records[i]
		if rec.ID < f.entries {
			continue
		}
		continued++
		if _, dup := f.journaled[rec.Point.Key()]; dup {
			again++
		}
		if !f.stamp.matches(rec) {
			wrong++
		}
	}
	r.fail(abs(continued-f.more), "continuation holds %d records, want %d", continued, f.more)
	r.fail(again, "%d journaled keys re-executed after the resume", again)
	r.fail(wrong, "%d outcomes differ from the stamped ones", wrong)
	stats, err := afex.ReadStateStats(dir)
	if err != nil {
		r.fail(f.more, "state directory after resume: %v", err)
		return
	}
	r.fail(abs(stats.Entries-want), "journal holds %d entries after the resume, want %d", stats.Entries, want)
}
