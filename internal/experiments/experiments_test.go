package experiments

import (
	"strings"
	"testing"

	"afex/internal/rpcnode"
)

// quick returns options that shrink the iteration budgets so the whole
// suite of experiment tests stays fast while still exercising every code
// path end to end.
func quickOpts() Opts { return Opts{Seed: 1, Reps: 1, Scale: 0.2} }

func TestFig1ShapeAndStructure(t *testing.T) {
	r := Fig1(Opts{Seed: 1, Reps: 1})
	if len(r.Functions) != 19 {
		t.Fatalf("function axis = %d, want 19", len(r.Functions))
	}
	if len(r.TestIDs) == 0 {
		t.Fatal("no ls tests found")
	}
	d := r.Density()
	if d <= 0 || d >= 0.9 {
		t.Errorf("failure density = %.2f; the map should be sparse but non-empty", d)
	}
	// Structure: at least one function column fails for every ls test
	// (a vertical stripe, the pattern Fig. 1 shows).
	stripe := false
	for j := range r.Functions {
		all := true
		for i := range r.TestIDs {
			if !r.Fail[i][j] {
				all = false
				break
			}
		}
		if all {
			stripe = true
			break
		}
	}
	if !stripe {
		t.Error("no full vertical stripe; the fault space lost its structure")
	}
	if !strings.Contains(r.String(), "Fig. 1") {
		t.Error("String() lacks the caption")
	}
}

func TestTable2FitnessBeatsRandom(t *testing.T) {
	// Crash counts at tiny scales are single digits and noisy; use half
	// the paper's budget so exploitation has room to show.
	r := Table2(Opts{Seed: 1, Reps: 2, Scale: 0.5})
	if r.FitnessFailed <= r.RandomFailed {
		t.Errorf("fitness %v ≤ random %v on failed tests", r.FitnessFailed, r.RandomFailed)
	}
	if r.FitnessCrash < r.RandomCrash {
		t.Errorf("fitness %v < random %v on crashes", r.FitnessCrash, r.RandomCrash)
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	r := Table3(quickOpts())
	if r.ExhaustTests != 1653 {
		t.Fatalf("exhaustive executed %d, want the full 1,653-point space", r.ExhaustTests)
	}
	if r.FitnessFailed <= r.RandomFailed {
		t.Errorf("fitness %v ≤ random %v", r.FitnessFailed, r.RandomFailed)
	}
	if float64(r.ExhaustFailed) < r.FitnessFailed {
		t.Errorf("exhaustive found fewer failures (%d) than a subset search (%v)", r.ExhaustFailed, r.FitnessFailed)
	}
	if r.ExhaustiveCov < r.SuiteCoverage {
		t.Error("exhaustive coverage below suite-only coverage")
	}
	if r.ExhaustRecCov <= 0 || r.ExhaustRecCov > 1 {
		t.Errorf("recovery coverage out of range: %v", r.ExhaustRecCov)
	}
}

func TestFig8CurvesMonotonic(t *testing.T) {
	r := Fig8(quickOpts())
	for i := 1; i < r.Iterations; i++ {
		if r.FitnessCurve[i] < r.FitnessCurve[i-1] || r.RandomCurve[i] < r.RandomCurve[i-1] {
			t.Fatalf("cumulative curve decreased at %d", i)
		}
	}
	last := r.Iterations - 1
	if r.FitnessCurve[last] <= r.RandomCurve[last] {
		t.Errorf("final: fitness %v ≤ random %v", r.FitnessCurve[last], r.RandomCurve[last])
	}
}

func TestTable4StructureLossHurts(t *testing.T) {
	// Structure effects need enough iterations for the search to infer
	// the structure at all; tiny scales are dominated by the random
	// initial batch.
	r := Table4(Opts{Seed: 1, Reps: 2, Scale: 0.5})
	// The original structure must beat full random search on both
	// metrics, and every single-axis shuffle must sit at or below the
	// original (small tolerance for noise at the reduced scale).
	if r.FailedPct[0] <= r.FailedPct[4] {
		t.Errorf("original %.2f ≤ random search %.2f on failed fraction", r.FailedPct[0], r.FailedPct[4])
	}
	if r.CrashPct[0] <= r.CrashPct[4] {
		t.Errorf("original %.2f ≤ random search %.2f on crash fraction", r.CrashPct[0], r.CrashPct[4])
	}
	for axis := 1; axis <= 3; axis++ {
		if r.FailedPct[axis] > r.FailedPct[0]*1.25 {
			t.Errorf("shuffling axis %d increased failed fraction %.2f > original %.2f",
				axis-1, r.FailedPct[axis], r.FailedPct[0])
		}
	}
	if len(r.Sensitivities) != 3 {
		t.Errorf("sensitivities = %v", r.Sensitivities)
	}
}

func TestTable5FeedbackImprovesUniqueness(t *testing.T) {
	r := Table5(quickOpts())
	if r.Failed[1] > r.Failed[0] {
		t.Errorf("feedback should not increase raw failures: %v vs %v", r.Failed[1], r.Failed[0])
	}
	if r.UniqueFailures[1] < r.UniqueFailures[0] {
		t.Errorf("feedback reduced unique failures: %v vs %v", r.UniqueFailures[1], r.UniqueFailures[0])
	}
}

func TestTable6KnowledgeHelps(t *testing.T) {
	r := Table6(Opts{Seed: 1, Reps: 2})
	if r.TargetFaults < 5 {
		t.Fatalf("ground truth has only %d faults; experiment degenerate", r.TargetFaults)
	}
	blackbox, trimmed := r.Samples[0][0], r.Samples[1][0]
	if trimmed >= blackbox {
		t.Errorf("trimming did not help: %v vs %v", trimmed, blackbox)
	}
	// Fitness must beat random at every knowledge level.
	for lvl := 0; lvl < 3; lvl++ {
		if r.Samples[lvl][0] >= r.Samples[lvl][2] {
			t.Errorf("level %d: fitness %v ≥ random %v", lvl, r.Samples[lvl][0], r.Samples[lvl][2])
		}
	}
	// The exhaustive column is the space size, as the paper reports.
	if r.Samples[0][1] != 1653 || r.Samples[1][1] != r.Samples[2][1] {
		t.Errorf("exhaustive column = %v", r.Samples)
	}
}

func TestFig9MaturityShape(t *testing.T) {
	// Full 250-sample budget: the maturity comparison is meaningless on
	// a 50-sample run that barely exceeds the random initial batch.
	r := Fig9(Opts{Seed: 1, Reps: 2})
	if r.Ratio[0] <= r.Ratio[1] {
		t.Errorf("ratio should shrink with maturity: v0.8 %.2f vs v2.0 %.2f", r.Ratio[0], r.Ratio[1])
	}
	if r.Ratio[1] <= 1 {
		t.Errorf("fitness should still beat random on v2.0: %.2f", r.Ratio[1])
	}
	if r.Failures[1][0] <= r.Failures[0][0] {
		t.Errorf("v2.0 should have more total failures than v0.8 under fitness search")
	}
	if r.V08CrashFound {
		t.Error("v0.8 crashed; it has no crashing behaviours")
	}
}

// TestScalabilitySpeedsUp holds the simulated §7.7 table to the shape
// its model predicts. Below the node count where the coordinator
// saturates, every node runs tests at once and throughput grows with the
// nodes; above it, throughput flattens at what the coordinator serves.
// On one node nothing queues, so leasing one test a round trip costs
// about a round trip a test more than leasing adaptively. The table is a function of the seed, so
// these are exact.
func TestScalabilitySpeedsUp(t *testing.T) {
	r := Scalability(Opts{Seed: 1}, nil)
	if len(r.Nodes) != 7 || r.Nodes[len(r.Nodes)-1] != 64 {
		t.Fatalf("nodes = %v, want 1 to 64", r.Nodes)
	}
	for _, row := range []struct {
		name string
		run  ScaleRun
	}{{"adaptive", r.Adaptive}, {"single-task", r.Single}} {
		run := row.run
		if run.Bound <= float64(r.Nodes[1]) || run.Bound >= float64(r.Nodes[len(r.Nodes)-1]) {
			t.Fatalf("%s: coordinator binds at %.1f nodes, outside the table", row.name, run.Bound)
		}
		for i, n := range r.Nodes {
			if float64(n) < run.Bound {
				if run.PeakBusy[i] != n {
					t.Errorf("%s: %d nodes, %d busy at once", row.name, n, run.PeakBusy[i])
				}
				if run.Speedup(i) < 0.9*float64(n) {
					t.Errorf("%s: %d nodes, speedup %.2f", row.name, n, run.Speedup(i))
				}
				continue
			}
			if run.Speedup(i) > 1.05*run.Bound {
				t.Errorf("%s: %d nodes, speedup %.2f past the coordinator's bound %.1f", row.name, n, run.Speedup(i), run.Bound)
			}
			if prev := r.Nodes[i-1]; float64(prev) > run.Bound && run.Throughput[i] > 1.1*run.Throughput[i-1] {
				t.Errorf("%s: %d → %d nodes, both past the bound, throughput %.1f → %.1f", row.name, prev, n, run.Throughput[i-1], run.Throughput[i])
			}
		}
	}
	if paid := 1/r.Single.Throughput[0] - 1/r.Adaptive.Throughput[0]; paid < simRoundTrip.Seconds()/2 {
		t.Errorf("1 node: one test per lease takes %.2f ms a test longer than adaptive, want most of a %v round trip", paid*1e3, simRoundTrip)
	}
	// A manager that dies mid-lease costs the session: its lease comes
	// back only once it has missed three beats, so no session with a
	// death ends before then.
	if r.OneDies[0] != 0 {
		t.Errorf("1 node: %.1f tests/s with the only manager dead", r.OneDies[0])
	}
	for i, n := range r.Nodes[1:] {
		died := r.OneDies[i+1]
		if died <= 0 || died >= r.Adaptive.Throughput[i+1] {
			t.Errorf("%d nodes: %.1f tests/s with one dead, %.1f with none", n, died, r.Adaptive.Throughput[i+1])
		}
		if makespan := float64(r.Tests) / died; makespan < (3 * rpcnode.DefaultHeartbeat).Seconds() {
			t.Errorf("%d nodes: a session with one dead ended at %.2f s, before its three missed beats", n, makespan)
		}
	}
}

// TestAdaptiveLeaseScalesAtASmallBudget: at 2,000 tests, 64 managers
// sharing the budget are no slower than 32 — an adaptive lease is never
// more than a manager's share of what is left, so the first leases do
// not take the whole budget.
func TestAdaptiveLeaseScalesAtASmallBudget(t *testing.T) {
	r := Scalability(Opts{Seed: 1, Scale: 0.66667}, []int{1, 32, 64})
	if r.Tests != 2000 {
		t.Fatalf("simulated %d tests, want 2000", r.Tests)
	}
	if r.Adaptive.Throughput[2] < r.Adaptive.Throughput[1] {
		t.Errorf("adaptive lease: %.1f tests/s at 64 nodes, %.1f at 32", r.Adaptive.Throughput[2], r.Adaptive.Throughput[1])
	}
}

func TestAblationsRun(t *testing.T) {
	r := Ablations(quickOpts())
	if len(r.Names) != 5 || r.Names[0] != "full algorithm" {
		t.Fatalf("variants = %v", r.Names)
	}
	for i, f := range r.Failed {
		if f < 0 {
			t.Errorf("variant %s failed count %v", r.Names[i], f)
		}
	}
}

func TestTable1MySQLShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 is the slowest experiment")
	}
	r := Table1(Opts{Seed: 1, Reps: 1, Scale: 0.25})
	if r.FitnessFailed <= r.RandomFailed {
		t.Errorf("fitness %v ≤ random %v", r.FitnessFailed, r.RandomFailed)
	}
	if r.FitnessCrash <= r.RandomCrash {
		t.Errorf("fitness crashes %v ≤ random %v", r.FitnessCrash, r.RandomCrash)
	}
}

func TestStringsRender(t *testing.T) {
	o := quickOpts()
	for name, s := range map[string]string{
		"table2": Table2(o).String(),
		"table3": Table3(o).String(),
		"fig8":   Fig8(o).String(),
		"fig9":   Fig9(o).String(),
	} {
		if len(s) < 50 || !strings.Contains(s, "paper shape") {
			t.Errorf("%s renders poorly:\n%s", name, s)
		}
	}
}

// TestPortfolioTracksBestFixedStrategy is the acceptance check for the
// adaptive bandit explorer: on every one of the four paper targets, at
// equal budget, the portfolio's unique-failure count must come within
// 10% of the best fixed strategy's — without knowing in advance which
// strategy that is (it differs per target).
func TestPortfolioTracksBestFixedStrategy(t *testing.T) {
	r := Portfolio(Opts{Seed: 1, Reps: 3})
	if len(r.Targets) != 4 {
		t.Fatalf("targets = %v, want the four paper targets", r.Targets)
	}
	for i, tgt := range r.Targets {
		ratio := r.PortfolioRatio(i)
		if ratio < 0.9 {
			t.Errorf("%s: portfolio %.1f unique failures vs best fixed %.1f (ratio %.3f < 0.9)",
				tgt, r.UniqueFailures[i][len(PortfolioStrategies)], r.BestFixed(i), ratio)
		}
		if r.BestFixed(i) == 0 {
			t.Errorf("%s: no fixed strategy found any unique failures; experiment degenerate", tgt)
		}
		// The bandit must actually have tried every arm.
		for _, name := range PortfolioStrategies {
			if r.ArmPulls[i][name] == 0 {
				t.Errorf("%s: arm %s got zero pulls", tgt, name)
			}
		}
	}
	if !strings.Contains(r.String(), "port/best") {
		t.Error("String() lacks the ratio column")
	}
}

// TestShardingFindsAtLeastAsManyClusters is the acceptance check for
// sharded exploration: at the same iteration budget, a 4-shard session
// must find at least as many unique failure clusters as the unsharded
// run (disjoint regions cannot collapse into one over-mined vicinity).
func TestShardingFindsAtLeastAsManyClusters(t *testing.T) {
	r := Sharding(Opts{Seed: 1, Reps: 3}, 4)
	if r.UniqueFailures[1] < r.UniqueFailures[0] {
		t.Errorf("sharded unique failures %.1f < unsharded %.1f",
			r.UniqueFailures[1], r.UniqueFailures[0])
	}
	if r.Failed[1] == 0 {
		t.Error("sharded session found no failures at all")
	}
}
