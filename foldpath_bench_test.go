package afex

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"
	"time"

	"afex/internal/cluster"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
	"afex/internal/xrand"
)

// Fold-path benchmarks: the two-phase fold pipeline (parallel precompute
// outside the session lock + ordered commit under it) and the sublinear
// similarity index behind §7.4 feedback. Run with:
//
//	go test -bench='BenchmarkEngineThroughputFeedback|BenchmarkFoldPipeline|BenchmarkClusterMaxSimilarity' -benchtime=1x
//
// BenchmarkEngineThroughputFeedback is the headline number: a
// feedback-enabled session (every fold pays clustering, a similarity
// probe and fitness scoring) over 50k tests, where the seed's serial
// fold under the engine lock capped scaling no matter how many workers
// executed tests. BenchmarkFoldPipeline isolates the fold path itself —
// no test execution at all — and compares one-at-a-time serial folding
// against precompute workers feeding batched commits.

const foldServiceTime = 100 * time.Microsecond

// feedbackBenchSpace is large enough (180k points) that drawing 50k
// random tests without replacement stays rejection-cheap.
func feedbackBenchSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 3),
		faultspace.SetAxis("function", "read", "malloc", "write"),
		faultspace.IntAxis("callNumber", 1, 15000),
	))
}

// benchStackPool fabricates deep injection stacks so the feedback
// probe's screening and clustering do representative work.
func benchStackPool(seed int64, n, minDepth, maxDepth int) [][]string {
	rng := xrand.New(seed)
	pool := make([][]string, n)
	for i := range pool {
		depth := minDepth + rng.Intn(maxDepth-minDepth+1)
		st := make([]string, depth)
		for j := range st {
			st[j] = fmt.Sprintf("mod%d!fn%d", rng.Intn(16), rng.Intn(64))
		}
		pool[i] = st
	}
	return pool
}

// stackedExecutor paces tests like a wall-clock-bound system under test
// and stamps every outcome with an injection stack chosen
// deterministically from the point, so feedback sessions exercise the
// full cluster/similarity path on every fold.
type stackedExecutor struct {
	inner   core.Executor
	service time.Duration
	pool    [][]string
}

func (s *stackedExecutor) Execute(c explore.Candidate) (core.Record, prog.Outcome) {
	if s.service > 0 {
		time.Sleep(s.service)
	}
	rec, out := s.inner.Execute(c)
	h := fnv.New64a()
	h.Write([]byte(c.Point.Key()))
	sum := h.Sum64()
	out.Injected = true
	out.InjectionStack = s.pool[sum%uint64(len(s.pool))]
	if sum%3 == 0 {
		out.Failed = true
	}
	rec.Outcome = out
	return rec, out
}

func measureFeedbackThroughput(tb testing.TB, workers, iterations int, seed int64) float64 {
	eng, err := NewEngine(Options{
		Target:     benchTarget(),
		Space:      feedbackBenchSpace(),
		Algorithm:  Random,
		Iterations: iterations,
		Workers:    workers,
		Feedback:   true,
		Explore:    ExploreOptions{Seed: seed},
	})
	if err != nil {
		tb.Fatal(err)
	}
	pool := benchStackPool(31, 2000, 6, 14)
	start := time.Now()
	eng.RunWith(&stackedExecutor{inner: eng.LocalExecutor(), service: foldServiceTime, pool: pool})
	res := eng.Finish()
	if res.Executed != iterations {
		tb.Fatalf("executed %d, want %d", res.Executed, iterations)
	}
	return float64(res.Executed) / time.Since(start).Seconds()
}

func BenchmarkEngineThroughputFeedback(b *testing.B) {
	const iterations = 50000
	for _, workers := range []int{1, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(measureFeedbackThroughput(b, workers, iterations, int64(i+1)), "tests/sec")
			}
		})
	}
}

// foldBenchSpace provides 24k distinct points for pre-executed fold
// corpora.
func foldBenchSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 3),
		faultspace.SetAxis("function", "read", "malloc", "write"),
		faultspace.IntAxis("callNumber", 1, 2000),
	))
}

func newFoldBenchEngine(tb testing.TB, iterations int) *Engine {
	eng, err := NewEngine(Options{
		Target:     benchTarget(),
		Space:      foldBenchSpace(),
		Algorithm:  Exhaustive,
		Iterations: iterations,
		Feedback:   true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// makeFoldTests executes n tests up front (off the clock) so the fold
// benchmarks measure nothing but the fold path. Injection stacks are
// deep and mostly novel — the worst case for the similarity probe, and
// exactly the work the precompute stage exists to take off the lock.
func makeFoldTests(tb testing.TB, n int) []core.ExecutedTest {
	eng := newFoldBenchEngine(tb, n)
	exec := eng.LocalExecutor()
	cands := eng.Lease(n)
	if len(cands) != n {
		tb.Fatalf("leased %d candidates, want %d", len(cands), n)
	}
	base := benchStackPool(37, 800, 10, 20)
	rng := xrand.New(41)
	tests := make([]core.ExecutedTest, n)
	for i, c := range cands {
		rec, out := exec.Execute(c)
		st := base[rng.Intn(len(base))]
		if rng.Intn(10) >= 3 { // 70% novel: mutate one frame uniquely
			st = append([]string(nil), st...)
			st[rng.Intn(len(st))] = fmt.Sprintf("mut%d!x%d", i, rng.Intn(8))
		}
		out.Injected = true
		out.InjectionStack = st
		if i%3 == 0 {
			out.Failed = true
		}
		rec.Outcome = out
		tests[i] = core.ExecutedTest{C: c, Rec: rec, Out: out}
	}
	return tests
}

func foldBenchWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 16 {
		w = 16
	}
	if w < 1 {
		w = 1
	}
	return w
}

// measureFoldSerial folds the corpus one test at a time — the seed's
// shape: every fold keys, hashes, screens and clusters under the
// session lock.
func measureFoldSerial(tb testing.TB, tests []core.ExecutedTest) float64 {
	eng := newFoldBenchEngine(tb, len(tests))
	eng.Lease(len(tests))
	start := time.Now()
	for i := range tests {
		eng.Fold(tests[i].C, tests[i].Rec, tests[i].Out)
	}
	elapsed := time.Since(start)
	res := eng.Finish()
	if res.Executed != len(tests) {
		tb.Fatalf("folded %d, want %d", res.Executed, len(tests))
	}
	return float64(len(tests)) / elapsed.Seconds()
}

// measureFoldPipeline runs the two-phase shape: precompute workers do
// the pure per-test work (keys, stack hash, screened similarity) in
// parallel, a reducer commits batches under the lock.
func measureFoldPipeline(tb testing.TB, tests []core.ExecutedTest, workers int) float64 {
	eng := newFoldBenchEngine(tb, len(tests))
	eng.Lease(len(tests))
	start := time.Now()
	ch := make(chan core.ExecutedTest, 256)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tests); i += workers {
				et := tests[i]
				eng.Precompute(&et)
				ch <- et
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	batch := make([]core.ExecutedTest, 0, 64)
	for et := range ch {
		batch = append(batch[:0], et)
	drain:
		for len(batch) < cap(batch) {
			select {
			case more, ok := <-ch:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		eng.FoldBatch(batch)
	}
	elapsed := time.Since(start)
	res := eng.Finish()
	if res.Executed != len(tests) {
		tb.Fatalf("folded %d, want %d", res.Executed, len(tests))
	}
	return float64(len(tests)) / elapsed.Seconds()
}

func BenchmarkFoldPipeline(b *testing.B) {
	tests := makeFoldTests(b, 20000)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(measureFoldSerial(b, tests), "scenarios/sec")
		}
	})
	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(measureFoldPipeline(b, tests, foldBenchWorkers()), "scenarios/sec")
		}
	})
}

// simBenchSet builds an n-stack similarity memory with the session
// shape (duplicate-heavy, varied depth) plus novel probes guaranteed
// not to hit the exact-match hash.
func simBenchSet(n int) (*cluster.Set, [][]string) {
	rng := xrand.New(29)
	base := make([][]string, 600)
	for i := range base {
		depth := 2 + rng.Intn(10)
		st := make([]string, depth)
		for j := range st {
			st[j] = fmt.Sprintf("mod%d!fn%d", rng.Intn(12), rng.Intn(50))
		}
		base[i] = st
	}
	set := cluster.NewSet(1)
	for i := 0; i < n; i++ {
		st := base[rng.Intn(len(base))]
		if rng.Intn(100) < 30 {
			st = append([]string(nil), st...)
			st[rng.Intn(len(st))] = fmt.Sprintf("mod%d!fn%d", rng.Intn(12), rng.Intn(50))
		}
		set.Add(i, st)
	}
	probes := make([][]string, 512)
	for i := range probes {
		st := append([]string(nil), base[rng.Intn(len(base))]...)
		st[rng.Intn(len(st))] = fmt.Sprintf("probe!x%d", i)
		probes[i] = st
	}
	return set, probes
}
