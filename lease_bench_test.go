package afex

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"afex/internal/core"
)

// Lease-path benchmarks: the asynchronous candidate prefetch ring
// against depth 0, where every Lease generates what it hands out. Run
// with:
//
//	go test -bench BenchmarkLeaseFoldContention -benchtime=1x
//
// The workload is the engine's worst case for lease/fold contention:
// every worker alternates between leasing a small batch and folding its
// own results into a feedback-enabled session, so lease rounds and fold
// commits fight over the engine continuously. At depth 0 every lease
// round runs the explorer under the explorer lock, queueing behind the
// other workers' rounds and the commits' feedback reports; with the
// ring, Lease dequeues pre-generated candidates under the narrow lease
// lock while the generator refills the ring concurrently with commits.

const (
	leaseBenchIterations = 12000
	leaseBenchBatch      = 4
)

// measureLeaseFoldThroughput runs one session to completion with the
// mixed Lease/FoldBatch worker shape and returns scenarios/sec. depth
// is Options.PrefetchDepth.
func measureLeaseFoldThroughput(tb testing.TB, workers, depth int, seed int64) float64 {
	eng, err := NewEngine(Options{
		Target:        benchTarget(),
		Space:         feedbackBenchSpace(),
		Algorithm:     Portfolio,
		Iterations:    leaseBenchIterations,
		Workers:       workers,
		Feedback:      true,
		PrefetchDepth: depth,
		Explore:       ExploreOptions{Seed: seed},
	})
	if err != nil {
		tb.Fatal(err)
	}
	// The pool is sized so candidate generation and fold commit cost
	// about the same per test: that is the regime where overlapping the
	// two stages pays the most, and it keeps clustering (Precompute)
	// cheap enough that the benchmark stays lock-bound, not CPU-bound.
	pool := benchStackPool(43, 400, 5, 9)
	exec := &stackedExecutor{inner: eng.LocalExecutor(), pool: pool}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				cands := eng.Lease(leaseBenchBatch)
				if len(cands) == 0 {
					if eng.Waiting() {
						time.Sleep(100 * time.Microsecond)
						continue
					}
					return
				}
				batch := make([]core.ExecutedTest, 0, len(cands))
				for _, c := range cands {
					rec, out := exec.Execute(c)
					et := core.ExecutedTest{C: c, Rec: rec, Out: out}
					eng.Precompute(&et)
					batch = append(batch, et)
				}
				eng.FoldBatch(batch)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := eng.Finish()
	if res.Executed != leaseBenchIterations {
		tb.Fatalf("executed %d, want %d", res.Executed, leaseBenchIterations)
	}
	return float64(res.Executed) / elapsed.Seconds()
}

func BenchmarkLeaseFoldContention(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		for _, mode := range []struct {
			name  string
			depth int
		}{{"depth0", 0}, {"prefetch", PrefetchAdaptive}} {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.ReportMetric(measureLeaseFoldThroughput(b, workers, mode.depth, int64(i+1)), "scenarios/sec")
				}
			})
		}
	}
}
