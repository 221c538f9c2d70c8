package controlplane

// Prometheus text exposition (version 0.0.4), hand-rolled on the
// stdlib — the control plane takes no dependencies. Every metric is
// computed on scrape from the engines' live snapshots; nothing is
// sampled or cached, so a scrape always reflects the current state.

import (
	"fmt"
	"io"
	"strings"

	"afex/internal/core"
)

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// metricWriter accumulates one metric family: header once, then
// samples.
type metricWriter struct {
	w      io.Writer
	headed map[string]bool
}

func (mw *metricWriter) sample(name, help, typ string, labels [][2]string, value float64) {
	if !mw.headed[name] {
		fmt.Fprintf(mw.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		mw.headed[name] = true
	}
	if len(labels) == 0 {
		fmt.Fprintf(mw.w, "%s %g\n", name, value)
		return
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf(`%s="%s"`, l[0], promEscape(l[1]))
	}
	fmt.Fprintf(mw.w, "%s{%s} %g\n", name, strings.Join(parts, ","), value)
}

// writeMetrics renders the manager's full metric catalog:
//
//	afex_sessions{state=}                 sessions per lifecycle state
//	afex_scenarios_total{session=}        executed fault scenarios
//	afex_block_sets{session=}             distinct coverage sets folded
//	afex_block_walks_total{session=}      folds that walked their set (the rest skipped a repeat)
//	afex_scenarios_per_second{session=}   execution throughput
//	afex_failures_total{session=}         failed scenarios
//	afex_crashes_total{session=}          crashed scenarios
//	afex_hangs_total{session=}            hung scenarios
//	afex_unique_failure_clusters{session=} distinct failure clusters
//	afex_pending_leases{session=}         leased, unreported tests
//	afex_coverage_ratio{session=}         covered fraction of the target's blocks
//	afex_worker_pool_recycles_total{session=} end-of-life worker recycles
//	afex_avg_test_seconds{session=}       EWMA of per-test execution wall clock
//	afex_adaptive_batch{session=}         engine-suggested wire-batch size
//	afex_session_snapshots_total{session=} session snapshots handed to the store
//	afex_session_snapshot_seconds_total{session=} engine wall clock spent on them
//	afex_session_resume_entries{session=,path=,reason=} journal entries read to restore the session
//	afex_session_resume_seconds{session=,phase=} what the restore cost: snapshot, journal, restore
//	afex_arm_pulls_total{session=,arm=}   portfolio pulls per strategy
//	afex_arm_mean_reward{session=,arm=}   portfolio mean reward per strategy
func writeMetrics(w io.Writer, m *Manager) {
	mw := &metricWriter{w: w, headed: make(map[string]bool)}
	byState := map[string]int{StateRunning: 0, StateDone: 0, StateStopped: 0, StateFailed: 0}
	sessions := m.List()
	for _, s := range sessions {
		byState[s.Status(false).State]++
	}
	for _, state := range []string{StateRunning, StateDone, StateStopped, StateFailed} {
		mw.sample("afex_sessions", "Number of sessions per lifecycle state.", "gauge",
			[][2]string{{"state", state}}, float64(byState[state]))
	}
	// Snapshot each engine once, then emit family by family — the
	// exposition format wants every family's samples contiguous.
	snaps := make([]core.Snapshot, len(sessions))
	for i, s := range sessions {
		snaps[i] = s.eng.Snapshot()
	}
	perSession := func(name, help, typ string, value func(int) float64) {
		for i, s := range sessions {
			mw.sample(name, help, typ, [][2]string{{"session", s.ID}}, value(i))
		}
	}
	perSession("afex_scenarios_total", "Fault scenarios executed.", "counter",
		func(i int) float64 { return float64(snaps[i].Executed) })
	perSession("afex_block_sets", "Distinct coverage sets folded, by content sum.", "gauge",
		func(i int) float64 { return float64(snaps[i].BlockSets) })
	perSession("afex_block_walks_total", "Folds that walked their coverage set; 1 - walks/scenarios is the share that repeated a set and skipped.", "counter",
		func(i int) float64 { return float64(snaps[i].BlockWalks) })
	perSession("afex_scenarios_per_second", "Scenario execution throughput.", "gauge",
		func(i int) float64 { return sessions[i].rate(snaps[i]) })
	perSession("afex_failures_total", "Scenarios that produced a failure.", "counter",
		func(i int) float64 { return float64(snaps[i].Failed) })
	perSession("afex_crashes_total", "Scenarios that crashed the target.", "counter",
		func(i int) float64 { return float64(snaps[i].Crashed) })
	perSession("afex_hangs_total", "Scenarios that hung the target.", "counter",
		func(i int) float64 { return float64(snaps[i].Hung) })
	perSession("afex_unique_failure_clusters", "Distinct failure clusters discovered.", "gauge",
		func(i int) float64 { return float64(snaps[i].UniqueFailures) })
	perSession("afex_pending_leases", "Tests leased out and not yet reported.", "gauge",
		func(i int) float64 { return float64(snaps[i].Pending) })
	perSession("afex_coverage_ratio", "Covered fraction of the target's basic blocks (0 for a target without a block count).", "gauge",
		func(i int) float64 { return snaps[i].Coverage })
	perSession("afex_worker_pool_recycles_total", "Worker processes recycled at the end of their life.", "counter",
		func(i int) float64 { return float64(snaps[i].PoolRecycles) })
	perSession("afex_avg_test_seconds", "EWMA of per-test execution wall clock reported by executors.", "gauge",
		func(i int) float64 { return float64(snaps[i].AvgTestNS) / 1e9 })
	perSession("afex_adaptive_batch", "Engine-suggested wire-batch size from measured test latency.", "gauge",
		func(i int) float64 { return float64(snaps[i].AdaptiveBatch) })
	perSession("afex_session_snapshots_total", "Session snapshots handed to the store.", "counter",
		func(i int) float64 { return float64(snaps[i].Snapshots) })
	perSession("afex_session_snapshot_seconds_total", "Engine wall clock spent capturing, assembling and enqueueing session snapshots.", "counter",
		func(i int) float64 { return float64(snaps[i].SnapshotNS) / 1e9 })
	for i, s := range sessions {
		if r := snaps[i].Resume; r != nil {
			mw.sample("afex_session_resume_entries", "Journal entries read to restore the session, by path (tail, or full-journal and why).", "gauge",
				[][2]string{{"session", s.ID}, {"path", r.Path}, {"reason", r.Reason}}, float64(r.Entries))
		}
	}
	for i, s := range sessions {
		if r := snaps[i].Resume; r != nil {
			ns := [...]int64{r.SnapshotNS, r.JournalNS, r.RestoreNS}
			for j, phase := range [...]string{"snapshot", "journal", "restore"} {
				mw.sample("afex_session_resume_seconds", "Wall clock of restoring the session: decoding the snapshot, reading the journal, rebuilding engine and explorer.", "gauge",
					[][2]string{{"session", s.ID}, {"phase", phase}}, float64(ns[j])/1e9)
			}
		}
	}
	for i, s := range sessions {
		for _, a := range snaps[i].Arms {
			mw.sample("afex_arm_pulls_total", "Portfolio pulls per strategy arm.", "counter",
				[][2]string{{"session", s.ID}, {"arm", a.Name}}, float64(a.Pulls))
		}
	}
	for i, s := range sessions {
		for _, a := range snaps[i].Arms {
			mw.sample("afex_arm_mean_reward", "Portfolio mean reward per strategy arm.", "gauge",
				[][2]string{{"session", s.ID}, {"arm", a.Name}}, a.Mean)
		}
	}
}
