package experiments

import (
	"fmt"
	"strings"

	"afex/internal/explore"
	"afex/internal/targets"
)

// ---------------------------------------------------------------------------
// Sharded exploration — disjoint-region search at the same budget.

// ShardingResult compares one fitness-guided search over the whole space
// against a sharded session (Config.Shards) at the same iteration
// budget. Sharding stripes candidates over disjoint regions of the
// space, so the sharded session cannot re-mine one vicinity from several
// workers — the expectation is at least as many unique (distinct-stack)
// failure clusters for the same number of executed tests.
type ShardingResult struct {
	Iterations int
	Shards     int
	// Indexed: [0] unsharded, [1] sharded.
	Failed         [2]float64
	UniqueFailures [2]float64
	UniqueCrashes  [2]float64
}

// Sharding runs the comparison on the Apache target.
func Sharding(o Opts, shards int) ShardingResult {
	o = o.withDefaults()
	if shards < 2 {
		shards = 4
	}
	p := targets.Httpd()
	space := ApacheSpace()
	iters := o.iters(1000)
	vals := avg(o, func(seed int64) []float64 {
		base := run(p, space, "fitness", iters, seed, false)
		cfg := session(p, space, "fitness", iters, explore.Config{Seed: seed})
		cfg.Shards = shards
		sh := mustRun(cfg)
		return []float64{
			float64(base.Failed), float64(sh.Failed),
			float64(base.UniqueFailures), float64(sh.UniqueFailures),
			float64(base.UniqueCrashes), float64(sh.UniqueCrashes),
		}
	})
	res := ShardingResult{Iterations: iters, Shards: shards}
	copy(res.Failed[:], vals[0:2])
	copy(res.UniqueFailures[:], vals[2:4])
	copy(res.UniqueCrashes[:], vals[4:6])
	return res
}

// String renders the comparison.
func (r ShardingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding — disjoint-region search (Apache, %d iterations, %d shards)\n", r.Iterations, r.Shards)
	fmt.Fprintf(&b, "  %-18s %12s %12s\n", "", "unsharded", "sharded")
	row := func(name string, v [2]float64) {
		fmt.Fprintf(&b, "  %-18s %12.0f %12.0f\n", name, v[0], v[1])
	}
	row("# failed tests", r.Failed)
	row("# unique failures", r.UniqueFailures)
	row("# unique crashes", r.UniqueCrashes)
	fmt.Fprintf(&b, "  expectation: sharding trades no unique-failure yield for disjoint-region parallelism\n")
	return b.String()
}
