package main

// The cluster layer is buried: the engine calls it from inside
// Precompute (the similarity screen) and from inside the commit (the
// resolve and the three set adds), where no wrapper reaches. Its cost
// is measured by replaying the traced run's recorded outcomes against
// the package's public functions, in the call order the engine uses.

import (
	"runtime"
	"time"

	"afex/internal/cluster"
)

// clusterCost is what the replay measured.
type clusterCost struct {
	probe, add, export time.Duration
	injected           int
	distinct           int
	mallocs            uint64
}

// timerCost estimates what one time.Now/time.Since pair adds to a timed
// call, so per-call timing of sub-microsecond functions stays honest.
func timerCost() time.Duration {
	const n = 2000
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	if sink < 0 { // never: keeps the loop's result live
		return 0
	}
	return time.Since(start) / n
}

// replayCluster feeds events through fresh cluster sets the way the
// engine does: key the stack, screen and resolve its similarity when
// the session runs result-quality feedback (probe), then remember it
// and cluster the failures and crashes (add); and, at every scenario
// count in snapshots (ascending) — where the traced session handed the
// store a snapshot — export the three sets' state (export).
func replayCluster(events []replayEvent, feedback bool, threshold int, snapshots []int) clusterCost {
	if threshold == 0 {
		threshold = 1
	}
	all, fails, crashes := cluster.NewSet(threshold), cluster.NewSet(threshold), cluster.NewSet(threshold)
	var c clusterCost
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tick := timerCost()
	export := func() {
		t := time.Now()
		all.View().ExportState()
		fails.View().ExportState()
		crashes.View().ExportState()
		c.export += time.Since(t)
	}
	for id, ev := range events {
		for len(snapshots) > 0 && snapshots[0] <= id {
			snapshots = snapshots[1:]
			export()
		}
		if !ev.injected {
			continue
		}
		c.injected++
		t := time.Now()
		key := cluster.StackKey(ev.stack)
		if feedback {
			sim, version := all.PeekSimilarity(ev.stack, key)
			all.ResolveSimilarity(ev.stack, key, sim, version)
		}
		c.probe += time.Since(t) - tick
		t = time.Now()
		all.AddKeyed(id, ev.stack, key)
		if ev.failed {
			fails.AddKeyed(id, ev.stack, key)
			if ev.crashed {
				crashes.AddKeyed(id, ev.stack, key)
			}
		}
		c.add += time.Since(t) - tick
	}
	if len(snapshots) > 0 { // the final snapshot, taken by Finish
		export()
	}
	runtime.ReadMemStats(&ms1)
	c.mallocs = ms1.Mallocs - ms0.Mallocs
	if c.probe < 0 {
		c.probe = 0
	}
	if c.add < 0 {
		c.add = 0
	}
	// Distinct stacks, counted apart so the map stays out of the figures
	// above.
	distinct := make(map[string]struct{})
	for _, ev := range events {
		if ev.injected {
			distinct[cluster.StackKey(ev.stack)] = struct{}{}
		}
	}
	c.distinct = len(distinct)
	return c
}

// report writes the cluster metrics of a run of n scenarios.
func (c clusterCost) report(l map[string]float64, n float64) {
	l["cluster.probe_ns_per_scenario"] = float64(c.probe) / n
	l["cluster.add_ns_per_scenario"] = float64(c.add) / n
	l["cluster.export_ns_per_scenario"] = float64(c.export) / n
	l["cluster.remembered_stacks"] = float64(c.distinct)
	l["cluster.allocs_per_scenario"] = float64(c.mallocs) / n
	if c.injected > 0 {
		l["cluster.novel_ratio"] = float64(c.distinct) / float64(c.injected)
	}
}
