package core

import (
	"afex/internal/inject"
	"afex/internal/prog"
)

// PerfScore builds an impact Score that adds performance degradation to
// the usual failure scoring — the §6 use case "obtain the top-50 worst
// faults performance-wise (faults that affect system performance the
// most)", e.g. the change in requests per second served by Apache when
// packets are dropped.
//
// The simulated performance metric is work completed per run (executed
// operations): a fault that makes a test complete far less work than its
// fault-free baseline has degraded the service, whether or not anything
// failed outright. The baseline is the program's memoised fault-free run.
//
// The returned score is:
//
//	base(outcome) + perfWeight × relativeWorkLoss
//
// where base is the ImpactConfig's additive scoring and relativeWorkLoss
// is (baselineOps − ops)/baselineOps clamped to [0, 1]. Early exits
// (crashes, failed tests) naturally show large work loss; a tolerated
// fault that silently halves throughput also scores, which is the point.
func PerfScore(target *prog.Program, im ImpactConfig, perfWeight float64) func(prog.Outcome, int, inject.Plan, int) float64 {
	return func(out prog.Outcome, newBlocks int, plan inject.Plan, testID int) float64 {
		v := im.PerNewBlock * float64(newBlocks)
		if out.Injected {
			switch {
			case out.Crashed:
				v += im.Crash
			case out.Hung:
				v += im.Hang
			case out.Failed:
				v += im.Failed
			}
		}
		clean, _ := target.FaultFree(testID)
		if b := clean.OpsExecuted; b > 0 {
			loss := float64(b-out.OpsExecuted) / float64(b)
			v += perfWeight * min(max(loss, 0), 1)
		}
		return v
	}
}

// TopPerformanceFaults runs a session searching for the faults that
// degrade the target's throughput the most and returns the top k by
// impact. It is a convenience wrapper for the "top-K worst
// performance-wise" search target.
func TopPerformanceFaults(cfg Config, perfWeight float64, k int) ([]Record, *ResultSet, error) {
	if cfg.Impact.PerNewBlock == 0 && cfg.Impact.Failed == 0 && cfg.Impact.Crash == 0 && cfg.Impact.Hang == 0 {
		relevance := cfg.Impact.Relevance
		cfg.Impact = DefaultImpact()
		cfg.Impact.Relevance = relevance
	}
	cfg.Impact.Score = PerfScore(cfg.Target, cfg.Impact, perfWeight)
	res, err := Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	ranked := res.RankBySeverity()
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k], res, nil
}
