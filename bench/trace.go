package main

// Outside-in tracing. The traced run records a span around every call
// the benchmark makes into a layer — and, through three forwarding
// wrappers, around every call the engine makes out of core into
// explore, store and backend — without touching a file outside bench/.
// Spans are kept as in-memory per-kind totals (count, summed duration)
// and written out with the result; a layer's self time is its spans'
// duration minus the part its child spans cover. The parent of each
// wrapper span is fixed by the engine's call structure at the shipped
// defaults (prefetch depth 0):
//
//	core.lease      ⊃ explore.next (BatchNext/Next/Skip)
//	core.execute    ⊃ backend.run
//	core.precompute ⊃ cluster probe            (buried: replayed)
//	core.commit     ⊃ explore.report, explore.state, store.enqueue,
//	                  store.snapshot, cluster add (buried: replayed)
//	core.finish     ⊃ explore.state, store.snapshot
//
// Tracing inside the engine (core.Stages) is a later change and will
// be checked against these numbers.

import (
	"fmt"
	"sync/atomic"
	"time"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/inject"
	"afex/internal/prog"
)

// spanKind names one layer boundary.
type spanKind int

const (
	spConstruct spanKind = iota // engine/store/coordinator construction
	spWorker                    // one worker's (or manager's) whole loop
	spLease
	spExecute
	spPrecompute
	spCommit
	spFinish
	spExploreNext
	spExploreReport
	spExploreState
	spBackendSpawn
	spBackendRun
	spStoreOpen
	spStoreRecover
	spStoreEnqueue
	spStoreSnapshot
	spStoreClose
	spRPCDial       // client-side dial and Hello handshake
	spRPCNextTrip   // client-side NextBatch round trip
	spRPCReportTrip // client-side ReportBatch round trip
	spRPCNextCall   // coordinator-side direct NextBatch call
	spRPCReportCall // coordinator-side direct ReportBatch call
	numSpans
)

var spanNames = [numSpans]string{
	"construct", "worker", "core.lease", "core.execute", "core.precompute", "core.commit", "core.finish",
	"explore.next", "explore.report", "explore.state",
	"backend.spawn", "backend.run",
	"store.open", "store.recover", "store.enqueue", "store.snapshot", "store.close",
	"rpc.dial", "rpc.next_trip", "rpc.report_trip", "rpc.next_call", "rpc.report_call",
}

// tracer accumulates span totals. Spans end on many goroutines at once
// (workers, RPC handlers), so the totals are atomics.
type tracer struct {
	ns [numSpans]atomic.Int64
	n  [numSpans]atomic.Int64
	// respawns and recycles are the execution backend's two counts (see
	// tracedRunner).
	respawns, recycles atomic.Int64
}

// end closes a span of kind k opened at start.
func (t *tracer) end(k spanKind, start time.Time) {
	t.ns[k].Add(int64(time.Since(start)))
	t.n[k].Add(1)
}

func (t *tracer) total(k spanKind) time.Duration { return time.Duration(t.ns[k].Load()) }
func (t *tracer) count(k spanKind) int64         { return t.n[k].Load() }

// spanTotals is the written-out form of a tracer.
type spanTotals struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
}

func (t *tracer) export() map[string]spanTotals {
	out := make(map[string]spanTotals, numSpans)
	for k := spanKind(0); k < numSpans; k++ {
		if n := t.count(k); n > 0 {
			out[spanNames[k]] = spanTotals{Count: n, TotalNS: int64(t.total(k))}
		}
	}
	return out
}

// tracedExplorer times every call the engine makes into the exploration
// stack. It forwards every capability interface package explore probes
// for, with exactly the fallback the engine (or explore.Novel) applies
// when the inner explorer lacks one, so a traced session takes the same
// engine path and explores the same points as an untraced one.
type tracedExplorer struct {
	in explore.Explorer
	tr *tracer
	// generated and skipped count candidates produced and candidates
	// committed unexecuted (novelty-filter collisions); explorer access
	// is serialized by the engine, so plain ints do.
	generated, skipped int64
}

var (
	_ explore.Explorer         = (*tracedExplorer)(nil)
	_ explore.Named            = (*tracedExplorer)(nil)
	_ explore.Countable        = (*tracedExplorer)(nil)
	_ explore.Skipper          = (*tracedExplorer)(nil)
	_ explore.Prefetchable     = (*tracedExplorer)(nil)
	_ explore.BatchNexter      = (*tracedExplorer)(nil)
	_ explore.BatchReporter    = (*tracedExplorer)(nil)
	_ explore.StatefulExplorer = (*tracedExplorer)(nil)
	_ explore.Sensitive        = (*tracedExplorer)(nil)
	_ explore.ArmReporter      = (*tracedExplorer)(nil)
)

func (e *tracedExplorer) Next() (explore.Candidate, bool) {
	defer e.tr.end(spExploreNext, time.Now())
	c, ok := e.in.Next()
	if ok {
		e.generated++
	}
	return c, ok
}

func (e *tracedExplorer) BatchNext(n int) []explore.Candidate {
	defer e.tr.end(spExploreNext, time.Now())
	out := explore.BatchNext(e.in, n)
	e.generated += int64(len(out))
	return out
}

func (e *tracedExplorer) Skip(c explore.Candidate) {
	defer e.tr.end(spExploreNext, time.Now())
	e.skipped++
	if sk, ok := e.in.(explore.Skipper); ok {
		sk.Skip(c)
		return
	}
	e.in.Report(c, 0, 0)
}

func (e *tracedExplorer) Report(c explore.Candidate, impact, fitness float64) {
	defer e.tr.end(spExploreReport, time.Now())
	e.in.Report(c, impact, fitness)
}

func (e *tracedExplorer) ReportBatch(batch []explore.Feedback) {
	defer e.tr.end(spExploreReport, time.Now())
	explore.ReportBatch(e.in, batch)
}

func (e *tracedExplorer) Name() string {
	if n, ok := e.in.(explore.Named); ok {
		return n.Name()
	}
	return ""
}

func (e *tracedExplorer) Prefetchable() bool { return explore.IsPrefetchable(e.in) }

func (e *tracedExplorer) Executed() int {
	if c, ok := e.in.(explore.Countable); ok {
		return c.Executed()
	}
	return 0
}

func (e *tracedExplorer) HistorySize() int {
	if c, ok := e.in.(explore.Countable); ok {
		return c.HistorySize()
	}
	return 0
}

func (e *tracedExplorer) Sensitivities(sub int) []float64 {
	if s, ok := e.in.(explore.Sensitive); ok {
		return s.Sensitivities(sub)
	}
	return nil
}

func (e *tracedExplorer) ArmStats() []explore.ArmStat {
	if a, ok := e.in.(explore.ArmReporter); ok {
		return a.ArmStats()
	}
	return nil
}

func (e *tracedExplorer) ExportState() *explore.State {
	defer e.tr.end(spExploreState, time.Now())
	if se, ok := e.in.(explore.StatefulExplorer); ok {
		return se.ExportState()
	}
	return nil
}

func (e *tracedExplorer) ImportState(st *explore.State) error {
	defer e.tr.end(spExploreState, time.Now())
	if se, ok := e.in.(explore.StatefulExplorer); ok {
		return se.ImportState(st)
	}
	return fmt.Errorf("bench: %s explorer has no importable state", e.Name())
}

// tracedStore times the engine's two calls into the persistence seam
// and notes at which scenario counts snapshots were taken (the engine
// serializes SnapshotSession calls).
type tracedStore struct {
	in        core.Store
	tr        *tracer
	snapshots []int
}

func (s *tracedStore) JournalRecord(c explore.Candidate, rec core.Record) {
	defer s.tr.end(spStoreEnqueue, time.Now())
	s.in.JournalRecord(c, rec)
}

func (s *tracedStore) SnapshotSession(st *core.SessionState) {
	defer s.tr.end(spStoreSnapshot, time.Now())
	s.snapshots = append(s.snapshots, st.Seq)
	s.in.SnapshotSession(st)
}

// tracedRunner times every test the execution backend runs, counts the
// ones that took a real worker process down, and on Close notes how many
// workers the pool recycled. It forwards the two optional runner
// capabilities (Recycler, Parallel).
type tracedRunner struct {
	in backend.Runner
	tr *tracer
}

var (
	_ backend.Runner   = (*tracedRunner)(nil)
	_ backend.Recycler = (*tracedRunner)(nil)
	_ backend.Parallel = (*tracedRunner)(nil)
)

func (r *tracedRunner) Run(testID int, plan inject.Plan) (prog.Outcome, backend.Exec) {
	defer r.tr.end(spBackendRun, time.Now())
	out, ex := r.in.Run(testID, plan)
	if ex.Backend == backend.Process && (out.Crashed || out.Hung) {
		r.tr.respawns.Add(1) // the pool replaces a worker its scenario killed
	}
	return out, ex
}

func (r *tracedRunner) Close() error {
	r.tr.recycles.Store(r.Recycles())
	return r.in.Close()
}

func (r *tracedRunner) Recycles() int64 {
	if rc, ok := r.in.(backend.Recycler); ok {
		return rc.Recycles()
	}
	return 0
}

// Parallelism reports the inner pool width; 0 — which dispatchers read
// as "no pool, fan out per core" — when the inner runner has none.
func (r *tracedRunner) Parallelism() int {
	if p, ok := r.in.(backend.Parallel); ok {
		return p.Parallelism()
	}
	return 0
}

// tracedBackendSeq numbers the registered tracing backends.
var tracedBackendSeq atomic.Int64

// registerTracedBackend registers a one-session execution backend that
// builds the backend named inner and wraps its runner with tr, and
// returns the name to put in core.Config.Backend. The registry has no
// removal, so every traced session adds one entry; the names never
// collide and nothing else in the process lists them.
func registerTracedBackend(inner string, tr *tracer) string {
	name := fmt.Sprintf("bench-traced-%d", tracedBackendSeq.Add(1))
	backend.Register(name, func(cfg backend.Config) (backend.Runner, error) {
		defer tr.end(spBackendSpawn, time.Now())
		r, err := backend.New(inner, cfg)
		if err != nil {
			return nil, err
		}
		return &tracedRunner{in: r, tr: tr}, nil
	})
	return name
}
