package afex

import (
	"fmt"
	"testing"

	"afex/internal/explore"
	"afex/internal/trace"
)

// Fault-space representation benchmarks.
//
// BenchmarkPairSpaceBuild demonstrates the lazy-axis contract: building
// a pair space costs O(axes) regardless of the callNumber range, so the
// ns/op figures must stay flat as callHi grows 10^2 → 10^7 while the
// reported space size grows by ten orders of magnitude. With the seed's
// materialized axes, callHi=10^7 alone would have allocated twenty
// million strings per construction.
func BenchmarkPairSpaceBuild(b *testing.B) {
	target, err := Target("mysqld")
	if err != nil {
		b.Fatal(err)
	}
	prof := Profile(target) // the ltrace step; not what is being measured
	for _, callHi := range []int{100, 100_000, 10_000_000} {
		b.Run(fmt.Sprintf("callHi=%d", callHi), func(b *testing.B) {
			var size int64
			for i := 0; i < b.N; i++ {
				u := prof.Describe(trace.Shape{Funcs: 10, CallHi: callHi, Pairs: true}).Build()
				size = u.Size()
			}
			if size <= 0 {
				b.Fatalf("size = %d", size)
			}
			b.ReportMetric(float64(size), "space-points")
		})
	}
}

// BenchmarkShardedLease measures the sharded explorer's batched
// lease/report cycle over a billion-point lazy space: the coordination
// cost every sharded session pays per candidate, independent of test
// execution.
func BenchmarkShardedLease(b *testing.B) {
	space, err := ParseSpace(`
		testID : [0,999]
		function : { read, write, malloc, open, close }
		callNumber : [1,200000] ;
	`)
	if err != nil {
		b.Fatal(err)
	}
	if space.Size() != 1000*5*200000 {
		b.Fatalf("space size = %d", space.Size())
	}
	const batch = 64
	ex, err := explore.NewShardedStrategy(space, 8, "fitness", explore.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	fb := make([]explore.Feedback, 0, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := ex.BatchNext(batch)
		if len(cands) == 0 {
			b.Fatal("explorer exhausted a billion-point space")
		}
		fb = fb[:0]
		for _, c := range cands {
			fb = append(fb, explore.Feedback{C: c, Impact: 1, Fitness: 1})
		}
		ex.ReportBatch(fb)
	}
	b.ReportMetric(float64(batch), "cands/op")
}
