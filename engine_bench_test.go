package afex

import (
	"fmt"
	"testing"

	"afex/internal/cluster"
	"afex/internal/prog"
	"afex/internal/xrand"
)

// Cluster-index benchmarks, and the target the fold-path and lease
// benchmarks share. Whole-session throughput is bench/'s business
// (`bash bench/run.sh --workload model-seq`). Run with:
//
//	go test -bench='BenchmarkClusterSetAdd|BenchmarkClusterMaxSimilarity' -benchtime=1x

// benchTarget is a target whose every test tolerates faults, keeping the
// fold path realistic (coverage accounting, occasional clustering) but
// cheap relative to the simulated test duration.
func benchTarget() *prog.Program {
	p := &prog.Program{
		Name: "engine-bench",
		Routines: map[string]*prog.Routine{
			"serve": {Name: "serve", Module: "srv", Ops: []prog.Op{
				{Func: "read", Repeat: 4, OnError: prog.Tolerate, Block: 1},
				{Func: "malloc", Repeat: 2, OnError: prog.Tolerate, Block: 2},
				{Func: "write", Repeat: 4, OnError: prog.Propagate, Block: 3, RecoveryBlock: 4},
			}},
		},
		TestSuite: []prog.Test{
			{Name: "t0", Script: []string{"serve"}},
			{Name: "t1", Script: []string{"serve"}},
			{Name: "t2", Script: []string{"serve"}},
			{Name: "t3", Script: []string{"serve"}},
		},
		NumBlocks: 4,
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// BenchmarkClusterSetAdd measures incremental clustering at session
// scale: 10k stacks per iteration, a mix of exact re-triggers (the
// common case in long sessions) and novel traces of varied depth. The
// indexed Set answers repeats from the exact-match hash and prunes the
// rest by the frame-count gap; the seed's linear scan was O(clusters)
// per Add and made sessions quadratic in executed tests.
func BenchmarkClusterSetAdd(b *testing.B) {
	const n = 10000
	rng := xrand.New(17)
	base := make([][]string, 600)
	for i := range base {
		depth := 2 + rng.Intn(10)
		st := make([]string, depth)
		for j := range st {
			st[j] = fmt.Sprintf("mod%d!fn%d", rng.Intn(12), rng.Intn(50))
		}
		base[i] = st
	}
	stacks := make([][]string, n)
	for i := range stacks {
		st := base[rng.Intn(len(base))]
		if rng.Intn(100) < 30 { // 30% near-miss mutations
			st = append([]string(nil), st...)
			st[rng.Intn(len(st))] = fmt.Sprintf("mod%d!fn%d", rng.Intn(12), rng.Intn(50))
		}
		stacks[i] = st
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := cluster.NewSet(1)
		for id, st := range stacks {
			set.Add(id, st)
		}
		b.ReportMetric(float64(set.Len()), "clusters")
	}
}

// BenchmarkClusterMaxSimilarity measures the §7.4 feedback probe — the
// inner loop of Feedback sessions, which the seed evaluated with a full
// linear scan per executed test. "novel" probes (PeekSimilarity, the
// pipeline's screening stage) never hit the exact-match hash or memo
// and pay the screened, band-bounded scan; "memoized" probes repeat and
// answer from the similarity memo after the first pass.
func BenchmarkClusterMaxSimilarity(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		set, probes := simBenchSet(n)
		b.Run(fmt.Sprintf("stacks=%d", n), func(b *testing.B) {
			b.Run("novel", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := probes[i%len(probes)]
					set.PeekSimilarity(p, cluster.StackKey(p))
				}
			})
			b.Run("memoized", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = set.MaxSimilarity(probes[i%len(probes)])
				}
			})
		})
	}
}
