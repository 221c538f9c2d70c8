package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/prog"
	"afex/internal/rpcnode"
	"afex/internal/targets"
	"afex/internal/xrand"
)

// ---------------------------------------------------------------------------
// Fig. 9 — efficiency across development stages (MongoDB v0.8 vs v2.0).

// Fig9Result compares the fitness/random failure ratio between the
// pre-production and industrial-strength MongoDB-like targets (§7.6).
type Fig9Result struct {
	Iterations int
	// Failures[version][alg]: version ∈ {v0.8, v2.0}, alg ∈ {fitness,
	// random}.
	Failures [2][2]float64
	// Ratio[version] is fitness/random.
	Ratio [2]float64
	// V2CrashFound reports whether any crash scenario was found in v2.0
	// (the paper found one in v2.0 and none in v0.8).
	V2CrashFound  bool
	V08CrashFound bool
}

// Fig9 runs the §7.6 maturity experiment (250 samples per mode).
func Fig9(o Opts) Fig9Result {
	o = o.withDefaults()
	iters := o.iters(250)
	res := Fig9Result{Iterations: iters}
	for vi, prg := range []*prog.Program{targets.MongoV08(), targets.MongoV20()} {
		space := spaceFor(prg, 19, 1, 20)
		vals := avg(o, func(seed int64) []float64 {
			fit := run(prg, space, "fitness", iters, seed, false)
			rnd := run(prg, space, "random", iters, seed, false)
			crash := 0.0
			if fit.Crashed > 0 || rnd.Crashed > 0 {
				crash = 1
			}
			return []float64{float64(fit.Failed), float64(rnd.Failed), crash}
		})
		res.Failures[vi][0], res.Failures[vi][1] = vals[0], vals[1]
		if vals[1] > 0 {
			res.Ratio[vi] = vals[0] / vals[1]
		}
		if vals[2] > 0 {
			if vi == 0 {
				res.V08CrashFound = true
			} else {
				res.V2CrashFound = true
			}
		}
	}
	return res
}

// String renders the Fig. 9 comparison.
func (r Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — AFEX efficiency across development stages (%d samples per mode)\n", r.Iterations)
	fmt.Fprintf(&b, "  %-14s %10s %10s %8s\n", "", "fitness", "random", "ratio")
	names := []string{"MongoDB v0.8", "MongoDB v2.0"}
	for i, n := range names {
		fmt.Fprintf(&b, "  %-14s %10.1f %10.1f %7.2fx\n", n, r.Failures[i][0], r.Failures[i][1], r.Ratio[i])
	}
	fmt.Fprintf(&b, "  crash scenario found: v0.8=%v v2.0=%v\n", r.V08CrashFound, r.V2CrashFound)
	fmt.Fprintf(&b, "  paper shape: ratio shrinks with maturity (2.37x → 1.43x); v2.0 has MORE total failures; only v2.0 crashes\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// §7.7 — scalability.

// ScaleResult reports distributed-mode throughput for growing manager
// counts, plus the explorer-only generation throughput (§7.7 measures
// ~8,500 tests/s for the explorer in isolation).
type ScaleResult struct {
	// Nodes[i] managers executed Tests tests in Elapsed[i]; Throughput[i]
	// is tests/second.
	Nodes      []int
	Tests      int
	Elapsed    []time.Duration
	Throughput []float64
	// PeakBusy[i] is the most managers that held leased tests at the
	// same moment (rpcnode.Stats.PeakBusy): whether the nodes really
	// worked at once, which — unlike the throughput figures — does not
	// depend on how many CPUs the run had to itself.
	PeakBusy []int
	// ExplorerTestsPerSec is the explorer's standalone generation rate.
	ExplorerTestsPerSec float64
	// WorkFactor is how many times each manager re-runs a test to emulate
	// a realistically heavy test (real fault-injection tests take
	// seconds; simulated ones take microseconds, which would make RPC
	// overhead, not test execution, the bottleneck — the opposite of the
	// deployment the paper describes).
	WorkFactor int
	// SingleTask reports how the managers leased: one task per round
	// trip with no lease in flight during execution (Manager.Batch = 1),
	// or (false) adaptive pipelined batches.
	SingleTask bool
}

// Scalability runs a local TCP cluster with 1..max managers leasing
// adaptive pipelined batches. ScalabilitySingleTask is the same
// experiment at Manager.Batch = 1 — the pair quantifies how much of
// the distributed ceiling is coordination round trips.
func Scalability(o Opts, nodeCounts []int, testsPerRun, workFactor int) ScaleResult {
	return scalability(o, nodeCounts, testsPerRun, workFactor, false)
}

// ScalabilitySingleTask is Scalability with every manager leasing one
// task at a time (Batch = 1): strict lease → run → report alternation.
func ScalabilitySingleTask(o Opts, nodeCounts []int, testsPerRun, workFactor int) ScaleResult {
	return scalability(o, nodeCounts, testsPerRun, workFactor, true)
}

func scalability(o Opts, nodeCounts []int, testsPerRun, workFactor int, singleTask bool) ScaleResult {
	o = o.withDefaults()
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1, 2, 4, 8, 14}
	}
	if testsPerRun <= 0 {
		testsPerRun = 280
	}
	if workFactor <= 0 {
		workFactor = 300
	}
	p := targets.Coreutils()
	space := CoreutilsSpace()
	res := ScaleResult{Tests: testsPerRun, WorkFactor: workFactor, SingleTask: singleTask}

	for _, n := range nodeCounts {
		ex := explore.NewFitnessGuided(space, explore.Config{Seed: o.Seed})
		coord, err := rpcnode.NewCoordinatorConfig(core.Config{Space: space, Iterations: testsPerRun}, ex, nil)
		var srv *rpcnode.Server
		if err == nil {
			srv, err = rpcnode.Serve("127.0.0.1:0", coord)
		}
		if err != nil {
			panic("experiments: " + err.Error())
		}
		// Every node says Hello before any leases: whether several hold
		// leases at once is then the coordinator's doing, not a race of
		// one node draining the budget against the others' dials.
		var mgrs []*rpcnode.Manager
		for m := 0; m < n; m++ {
			mgr, err := rpcnode.Dial(srv.Addr(), fmt.Sprintf("mgr%02d", m), p)
			if err != nil {
				continue
			}
			mgr.Work = workFactor
			// A §7.7 node runs one test at a time; without the cap
			// a single in-process manager runs a worker loop per core
			// and node count stops being the unit of parallelism.
			mgr.Concurrency = 1
			if singleTask {
				mgr.Batch = 1
			}
			mgrs = append(mgrs, mgr)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for _, mgr := range mgrs {
			wg.Add(1)
			go func(mgr *rpcnode.Manager) {
				defer wg.Done()
				defer mgr.Close()
				mgr.RunUntilDone()
			}(mgr)
		}
		wg.Wait()
		elapsed := time.Since(start)
		srv.Close()
		res.Nodes = append(res.Nodes, n)
		res.Elapsed = append(res.Elapsed, elapsed)
		stats := coord.Snapshot()
		res.Throughput = append(res.Throughput, float64(stats.Executed)/elapsed.Seconds())
		res.PeakBusy = append(res.PeakBusy, stats.PeakBusy)
	}

	res.ExplorerTestsPerSec = ExplorerThroughput(o)
	return res
}

// ExplorerThroughput measures the fitness-guided explorer's standalone
// Next+Report rate on the MySQL-scale space.
func ExplorerThroughput(o Opts) float64 {
	o = o.withDefaults()
	space := MySQLSpace()
	ex := explore.NewFitnessGuided(space, explore.Config{Seed: o.Seed})
	rng := xrand.New(o.Seed)
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		c, ok := ex.Next()
		if !ok {
			break
		}
		// Synthetic impact: the explorer's cost is independent of what
		// the impact values are.
		ex.Report(c, float64(rng.Intn(30)), float64(rng.Intn(30)))
	}
	return n / time.Since(start).Seconds()
}

// String renders the scalability table.
func (r ScaleResult) String() string {
	var b strings.Builder
	leasing := "adaptive batches"
	if r.SingleTask {
		leasing = "one task per lease"
	}
	fmt.Fprintf(&b, "§7.7 — scalability (%d tests per run, work factor %d, %s)\n", r.Tests, r.WorkFactor, leasing)
	fmt.Fprintf(&b, "  %-8s %12s %14s %10s %9s\n", "nodes", "elapsed", "tests/sec", "speedup", "peak busy")
	base := 0.0
	for i, n := range r.Nodes {
		if i == 0 {
			base = r.Throughput[0]
		}
		fmt.Fprintf(&b, "  %-8d %12v %14.0f %9.2fx %9d\n", n, r.Elapsed[i].Round(time.Millisecond), r.Throughput[i], r.Throughput[i]/base, r.PeakBusy[i])
	}
	fmt.Fprintf(&b, "  explorer standalone: %.0f tests/sec generated\n", r.ExplorerTestsPerSec)
	fmt.Fprintf(&b, "  paper shape: linear scaling with node count; explorer ≈8,500 tests/s, far from the bottleneck\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablations — the design choices explore.Config's ablation switches turn
// off (BenchmarkAblation* in the root package runs them as benchmarks).

// AblationResult compares the full algorithm against variants with one
// mechanism disabled, at a fixed budget on the Apache target. Raw counts
// alone can mislead — disabling aging, for example, lets the search camp
// on one crash vicinity and rack up redundant crashes — so the unique
// (distinct-stack) counts are reported alongside.
type AblationResult struct {
	Iterations    int
	Names         []string
	Failed        []float64
	Crashed       []float64
	UniqueFailed  []float64
	UniqueCrashed []float64
	Coverage      []float64
}

// Ablations measures the contribution of each mechanism of Algorithm 1:
// aging, sensitivity, Gaussian mutation, and fitness-proportional parent
// selection.
func Ablations(o Opts) AblationResult {
	o = o.withDefaults()
	p := targets.Httpd()
	space := ApacheSpace()
	iters := o.iters(1000)
	variants := []struct {
		name string
		cfg  explore.Config
	}{
		{"full algorithm", explore.Config{}},
		{"no aging", explore.Config{NoAging: true}},
		{"no sensitivity", explore.Config{NoSensitivity: true}},
		{"uniform mutation", explore.Config{UniformMutation: true}},
		{"greedy parent", explore.Config{Greedy: true}},
	}
	res := AblationResult{Iterations: iters}
	for _, v := range variants {
		cfg := v.cfg
		vals := avg(o, func(seed int64) []float64 {
			cfg.Seed = seed
			rs, err := coreRun(p, space, cfg, iters)
			if err != nil {
				panic(err)
			}
			return []float64{
				float64(rs.Failed), float64(rs.Crashed),
				float64(rs.UniqueFailures), float64(rs.UniqueCrashes),
				rs.Coverage,
			}
		})
		res.Names = append(res.Names, v.name)
		res.Failed = append(res.Failed, vals[0])
		res.Crashed = append(res.Crashed, vals[1])
		res.UniqueFailed = append(res.UniqueFailed, vals[2])
		res.UniqueCrashed = append(res.UniqueCrashed, vals[3])
		res.Coverage = append(res.Coverage, vals[4])
	}
	return res
}

// String renders the ablation table.
func (r AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations — Algorithm 1 mechanisms (Apache, %d iterations)\n", r.Iterations)
	fmt.Fprintf(&b, "  %-18s %8s %8s %9s %9s %9s\n", "variant", "failed", "crashes", "uniq-fail", "uniq-crsh", "coverage")
	for i, n := range r.Names {
		fmt.Fprintf(&b, "  %-18s %8.0f %8.0f %9.0f %9.0f %8.1f%%\n",
			n, r.Failed[i], r.Crashed[i], r.UniqueFailed[i], r.UniqueCrashed[i], 100*r.Coverage[i])
	}
	fmt.Fprintf(&b, "  expectation: the full algorithm leads on raw failure yield; weakening an\n")
	fmt.Fprintf(&b, "  exploitation mechanism (sensitivity, Gaussian) trades yield for incidental\n")
	fmt.Fprintf(&b, "  diversity — the trade the §7.4 feedback loop manages deliberately\n")
	return b.String()
}
