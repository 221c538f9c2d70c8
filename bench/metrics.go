package main

// The metric catalogue. BENCHMARK.json at the root of the repository
// repeats the names, units and directions below and fixes the
// regression bound of each end-to-end metric; the package test holds
// the two together.

// metricDef names one metric. Better is "higher" or "lower".
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// CPUTime marks a duration read from the CPU clock, which is held to
	// the machine's CPU speed, not its wall speed (see machine).
	CPUTime bool
	// Bound, on a per-layer metric, makes `bench compare` hold it to
	// that share like an end-to-end one. The builder's contract wants
	// every end-to-end metric on every workload and never zero, so the
	// four figures that exist on one or two workloads only (journal
	// bytes, wire bytes, resume time, scan rate) are per-layer metrics
	// that compare still gates.
	Bound float64
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them from untraced runs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "scenarios_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_scenario", Unit: "us", Better: "lower", CPUTime: true},
	{Name: "alloc_bytes_per_scenario", Unit: "bytes", Better: "lower"},
	{Name: "unique_failure_clusters", Unit: "count", Better: "higher"},
}

// perLayer are the metrics of single layers, from the traced run (and,
// for the figures no span is needed for, from the untraced repetitions
// beside it). A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "explore.next_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "explore.report_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "explore.skip_ratio", Unit: "ratio", Better: "lower"},

	{Name: "core.lease_self_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "core.execute_self_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "core.precompute_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "core.commit_self_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "core.lease_empty_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.finish_ms", Unit: "ms", Better: "lower"},

	{Name: "backend.run_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "backend.child_cpu_us_per_scenario", Unit: "us", Better: "lower", CPUTime: true},
	{Name: "backend.respawns", Unit: "count", Better: "lower"},
	{Name: "backend.recycles", Unit: "count", Better: "lower"},
	{Name: "backend.spawn_ms", Unit: "ms", Better: "lower"},

	{Name: "cluster.probe_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "cluster.add_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "cluster.export_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "cluster.novel_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.remembered_stacks", Unit: "count", Better: "lower"},
	{Name: "cluster.allocs_per_scenario", Unit: "count", Better: "lower"},

	{Name: "store.enqueue_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "store.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshots", Unit: "count", Better: "lower"},
	{Name: "store.close_ms", Unit: "ms", Better: "lower"},
	{Name: "store.journal_bytes_per_scenario", Unit: "bytes", Better: "lower", Bound: 0.05},
	{Name: "store.resume_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "store.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "store.resume_tail_entries", Unit: "count", Better: "lower"},
	{Name: "store.read_entries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},

	{Name: "rpcnode.next_batch_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "rpcnode.report_batch_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "rpcnode.wire_ns_per_scenario", Unit: "ns", Better: "lower"},
	{Name: "rpcnode.wire_bytes_per_scenario", Unit: "bytes", Better: "lower", Bound: 0.05},
	{Name: "rpcnode.mean_batch", Unit: "count", Better: "higher"},

	// Each layer's part of the summed self time of the traced run.
	{Name: "share.explore", Unit: "ratio", Better: "lower"},
	{Name: "share.core", Unit: "ratio", Better: "lower"},
	{Name: "share.backend", Unit: "ratio", Better: "lower"},
	{Name: "share.cluster", Unit: "ratio", Better: "lower"},
	{Name: "share.store", Unit: "ratio", Better: "lower"},
	{Name: "share.rpcnode", Unit: "ratio", Better: "lower"},

	// The honesty checks: what tracing costs, and how much of the time
	// the workers had is covered by a span (0.9–1.1 or the run fails).
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.attribution_ratio", Unit: "ratio", Better: "higher"},
}

// attributionLo and attributionHi bound trace.attribution_ratio.
const (
	attributionLo = 0.9
	attributionHi = 1.1
)

// attributed reports whether a traced run's spans account for the time
// its workers had.
func attributed(ratio float64) bool { return ratio >= attributionLo && ratio <= attributionHi }
