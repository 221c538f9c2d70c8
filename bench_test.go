// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7), plus ablation benches for the design choices behind
// explore.Config's ablation switches (BenchmarkAblation*, the benchmark
// form of experiments.Ablations) and micro-benchmarks of the hot paths.
// Run with:
//
//	go test -bench=. -benchmem
//
// Each table/figure benchmark executes the full experiment once per
// iteration (b.N is normally 1 for these — they are end-to-end runs, not
// microbenchmarks) and reports headline metrics via b.ReportMetric so the
// regenerated numbers are visible in the bench output itself.
package afex

import (
	"testing"

	"afex/internal/cluster"
	"afex/internal/experiments"
	"afex/internal/explore"
	"afex/internal/inject"
	"afex/internal/libc"
	"afex/internal/prog"
	"afex/internal/targets"
	"afex/internal/xrand"
)

// clusterLevenshtein aliases the internal implementation for the bench.
var clusterLevenshtein = cluster.Levenshtein

// benchOpts keeps benchmark runs reproducible and single-rep (the curated
// multi-rep numbers live in EXPERIMENTS.md).
func benchOpts() experiments.Opts { return experiments.Opts{Seed: 1, Reps: 1} }

func BenchmarkFig1FaultMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(benchOpts())
		b.ReportMetric(100*r.Density(), "fail-density-%")
	}
}

func BenchmarkTable1MySQL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(benchOpts())
		b.ReportMetric(r.FitnessFailed, "fitness-failed")
		b.ReportMetric(r.RandomFailed, "random-failed")
		b.ReportMetric(r.FitnessCrash, "fitness-crashes")
		b.ReportMetric(r.RandomCrash, "random-crashes")
	}
}

func BenchmarkTable2Apache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(benchOpts())
		b.ReportMetric(r.FitnessFailed, "fitness-failed")
		b.ReportMetric(r.RandomFailed, "random-failed")
		b.ReportMetric(r.StrdupHitsFitness, "strdup-hits")
	}
}

func BenchmarkTable3Coreutils(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(benchOpts())
		b.ReportMetric(r.FitnessFailed, "fitness-failed")
		b.ReportMetric(r.RandomFailed, "random-failed")
		b.ReportMetric(float64(r.ExhaustFailed), "exhaustive-failed")
	}
}

func BenchmarkFig8Curve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchOpts())
		last := len(r.FitnessCurve) - 1
		b.ReportMetric(r.FitnessCurve[last], "fitness-cum-failures")
		b.ReportMetric(r.RandomCurve[last], "random-cum-failures")
	}
}

func BenchmarkTable4Structure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4(benchOpts())
		b.ReportMetric(100*r.CrashPct[0], "orig-crash-%")
		b.ReportMetric(100*r.CrashPct[2], "randXfunc-crash-%")
		b.ReportMetric(100*r.CrashPct[4], "randsearch-crash-%")
	}
}

func BenchmarkTable5Feedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table5(benchOpts())
		b.ReportMetric(r.UniqueFailures[0], "unique-failures-plain")
		b.ReportMetric(r.UniqueFailures[1], "unique-failures-feedback")
	}
}

func BenchmarkTable6Knowledge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table6(benchOpts())
		b.ReportMetric(r.Samples[0][0], "blackbox-fitness")
		b.ReportMetric(r.Samples[1][0], "trimmed-fitness")
		b.ReportMetric(r.Samples[2][0], "trim+env-fitness")
	}
}

func BenchmarkFig9Mongo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchOpts())
		b.ReportMetric(r.Ratio[0], "v0.8-ratio")
		b.ReportMetric(r.Ratio[1], "v2.0-ratio")
	}
}

func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Scalability(benchOpts(), []int{1, 4, 64})
		b.ReportMetric(r.Adaptive.Speedup(1), "speedup-4-nodes")
		b.ReportMetric(r.Adaptive.Speedup(2), "speedup-64-nodes")
		b.ReportMetric(r.Adaptive.Bound, "bound-nodes")
	}
}

func BenchmarkExplorerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(experiments.ExplorerThroughput(benchOpts()), "tests/sec")
	}
}

// Ablation benches: the design choices explore.Config's ablation switches
// turn off, each compared against the full algorithm on the Apache
// target (experiments.Ablations tabulates the same variants).

func ablationRun(b *testing.B, cfg explore.Config) {
	b.Helper()
	p := targets.Httpd()
	space := experiments.ApacheSpace()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		ex := explore.NewFitnessGuided(space, cfg)
		failed := 0
		for n := 0; n < 1000; n++ {
			c, ok := ex.Next()
			if !ok {
				break
			}
			out := executeForBench(p, space, c)
			impact := 0.0
			if out.Injected && out.Failed {
				impact = 10
				failed++
			}
			if out.Crashed {
				impact = 20
			}
			ex.Report(c, impact, impact)
		}
		b.ReportMetric(float64(failed), "failed-tests")
	}
}

func executeForBench(p *prog.Program, space *Space, c explore.Candidate) prog.Outcome {
	s := space.Spaces[c.Point.Sub]
	fn := s.Attr(c.Point.Fault, 1)
	call := c.Point.Fault[2] + 1 // callNumber axis starts at 1 for Apache
	prof := libc.Lookup(fn)
	plan := inject.Single(inject.Fault{Function: fn, CallNumber: call, Err: prof.Errors[0]})
	return prog.Run(p, c.Point.Fault[0], plan)
}

// BenchmarkAblationGenetic runs the abandoned genetic-algorithm baseline
// (§3) on the same budget for comparison with BenchmarkAblationFull.
func BenchmarkAblationGenetic(b *testing.B) {
	p := targets.Httpd()
	space := experiments.ApacheSpace()
	for i := 0; i < b.N; i++ {
		ex := explore.NewGenetic(space, int64(i+1))
		failed := 0
		for n := 0; n < 1000; n++ {
			c, ok := ex.Next()
			if !ok {
				break
			}
			out := executeForBench(p, space, c)
			impact := 0.0
			if out.Injected && out.Failed {
				impact = 10
				failed++
			}
			if out.Crashed {
				impact = 20
			}
			ex.Report(c, impact, impact)
		}
		b.ReportMetric(float64(failed), "failed-tests")
	}
}

func BenchmarkAblationFull(b *testing.B)        { ablationRun(b, explore.Config{}) }
func BenchmarkAblationAging(b *testing.B)       { ablationRun(b, explore.Config{NoAging: true}) }
func BenchmarkAblationSensitivity(b *testing.B) { ablationRun(b, explore.Config{NoSensitivity: true}) }
func BenchmarkAblationGaussian(b *testing.B)    { ablationRun(b, explore.Config{UniformMutation: true}) }
func BenchmarkAblationGreedy(b *testing.B)      { ablationRun(b, explore.Config{Greedy: true}) }

// Micro-benchmarks of the hot paths.

// BenchmarkProgRunMySQLTest is the execution layer's micro-benchmark, one
// arm per path through prog.Run: a fault that fires (the compiled
// interpreter walks the test) and one the test never reaches (the
// fault-free memo answers).
func BenchmarkProgRunMySQLTest(b *testing.B) {
	p := targets.Mysqld()
	for _, arm := range []struct {
		name       string
		callNumber int
		fires      bool
	}{{"firing", 3, true}, {"non-firing", 1 << 20, false}} {
		plan := inject.Single(inject.Fault{Function: "read", CallNumber: arm.callNumber, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}})
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			injected := 0
			for i := 0; i < b.N; i++ {
				if prog.Run(p, i%len(p.TestSuite), plan).Injected {
					injected++
				}
			}
			if (injected > 0) != arm.fires {
				b.Fatalf("%d of %d runs injected", injected, b.N)
			}
		})
	}
}

func BenchmarkExplorerNextReport(b *testing.B) {
	space := experiments.MySQLSpace()
	ex := explore.NewFitnessGuided(space, explore.Config{Seed: 1})
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, ok := ex.Next()
		if !ok {
			break
		}
		ex.Report(c, float64(rng.Intn(30)), float64(rng.Intn(30)))
	}
}

func BenchmarkLevenshteinStacks(b *testing.B) {
	s1 := []string{"server!boot", "myisam!mi_create", "close:b2418"}
	s2 := []string{"server!boot", "myisam!mi_open", "read:b2409"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = clusterLevenshtein(s1, s2)
	}
}

func BenchmarkSpaceRandom(b *testing.B) {
	space := experiments.MySQLSpace()
	rng := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = space.Random(rng.Intn)
	}
}
