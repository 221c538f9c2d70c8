package core

// Tests for the two-phase fold pipeline: precompute outside the session
// lock (keying, stack hashing, similarity screening) + ordered commit
// under it. The pipeline must be invisible in results — sequential runs
// stay bit-for-bit deterministic (including Fitness, which flows
// through the memoized similarity index), and parallel runs with §7.4
// feedback enabled match the sequential session on everything that is
// independent of fold arrival order.

import (
	"testing"

	"afex/internal/explore"
	"afex/internal/faultspace"
)

func feedbackParitySpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 3),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 1, 25),
	))
}

func TestFoldPipelineFeedbackParity(t *testing.T) {
	const iterations = 150
	run := func(workers int) *ResultSet {
		res, err := Run(Config{
			Target:     sessionTarget(),
			Space:      feedbackParitySpace(),
			Algorithm:  "random",
			Iterations: iterations,
			Workers:    workers,
			Batch:      8,
			Feedback:   true,
			Explore:    explore.Config{Seed: 23},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	seqA := run(1)
	seqB := run(1)
	par := run(8)

	// Sequential determinism, record for record: the memoized similarity
	// index and batch-cached snapshots must not perturb Fitness, cluster
	// assignment or order.
	if len(seqA.Records) != len(seqB.Records) {
		t.Fatalf("sequential reruns disagree on record count: %d vs %d", len(seqA.Records), len(seqB.Records))
	}
	for i := range seqA.Records {
		a, b := &seqA.Records[i], &seqB.Records[i]
		if a.Scenario != b.Scenario || a.Fitness != b.Fitness || a.Impact != b.Impact || a.Cluster != b.Cluster {
			t.Fatalf("sequential rerun diverged at record %d: %+v vs %+v", i, a, b)
		}
	}

	if par.Executed != iterations || len(par.Records) != iterations {
		t.Fatalf("parallel executed %d tests (%d records), want exactly %d",
			par.Executed, len(par.Records), iterations)
	}
	seen := map[string]bool{}
	for _, rec := range par.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %v executed twice", rec.Point)
		}
		seen[rec.Point.Key()] = true
	}
	if par.Injected != seqA.Injected || par.Failed != seqA.Failed ||
		par.Crashed != seqA.Crashed || par.Hung != seqA.Hung {
		t.Errorf("tallies diverge: parallel inj=%d fail=%d crash=%d hung=%d, sequential inj=%d fail=%d crash=%d hung=%d",
			par.Injected, par.Failed, par.Crashed, par.Hung,
			seqA.Injected, seqA.Failed, seqA.Crashed, seqA.Hung)
	}
	if par.UniqueFailures != seqA.UniqueFailures || par.UniqueCrashes != seqA.UniqueCrashes {
		t.Errorf("cluster counts diverge: parallel %d/%d, sequential %d/%d",
			par.UniqueFailures, par.UniqueCrashes, seqA.UniqueFailures, seqA.UniqueCrashes)
	}
	// Fold order differs in parallel runs (Fitness legitimately depends
	// on it), so records compare as scenario sets.
	scen := func(r *ResultSet) map[string]bool {
		m := make(map[string]bool, len(r.Records))
		for _, rec := range r.Records {
			m[rec.Scenario] = true
		}
		return m
	}
	ps, ss := scen(par), scen(seqA)
	for s := range ss {
		if !ps[s] {
			t.Errorf("parallel run missed scenario %q", s)
		}
	}
}

// TestPrecomputedFoldMatchesUnprecomputed: FoldBatch must produce the
// same session whether entries arrive with Pre filled by an executor
// worker (possibly stale by many intervening folds) or nil. Interleaves
// stale precomputes with direct folds on one engine and checks the
// result against an engine fed the identical sequence without any
// precompute.
func TestPrecomputedFoldMatchesUnprecomputed(t *testing.T) {
	build := func() (*Engine, []ExecutedTest) {
		eng, err := NewEngine(Config{
			Target:    sessionTarget(),
			Space:     feedbackParitySpace(),
			Algorithm: "exhaustive",
			Feedback:  true,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		exec := eng.LocalExecutor()
		var tests []ExecutedTest
		for {
			cands := eng.Lease(1)
			if len(cands) == 0 {
				break
			}
			rec, out := exec.Execute(cands[0])
			tests = append(tests, ExecutedTest{C: cands[0], Rec: rec, Out: out})
		}
		return eng, tests
	}

	engPlain, testsPlain := build()
	for i := range testsPlain {
		engPlain.FoldBatch(testsPlain[i : i+1])
	}
	plain := engPlain.Finish()

	engPre, testsPre := build()
	// Precompute everything up front: by the time late entries commit,
	// their screened similarity is maximally stale and must be repaired
	// by ResolveSimilarity at commit.
	for i := range testsPre {
		engPre.Precompute(&testsPre[i])
	}
	for i := range testsPre {
		engPre.FoldBatch(testsPre[i : i+1])
	}
	pre := engPre.Finish()

	if len(plain.Records) != len(pre.Records) {
		t.Fatalf("record counts diverge: %d vs %d", len(plain.Records), len(pre.Records))
	}
	for i := range plain.Records {
		a, b := &plain.Records[i], &pre.Records[i]
		if a.Scenario != b.Scenario || a.Fitness != b.Fitness || a.Cluster != b.Cluster {
			t.Fatalf("record %d diverged with stale precompute: fitness %v vs %v, cluster %d vs %d (%s)",
				i, a.Fitness, b.Fitness, a.Cluster, b.Cluster, a.Scenario)
		}
	}
	if plain.UniqueFailures != pre.UniqueFailures || plain.UniqueCrashes != pre.UniqueCrashes {
		t.Fatalf("cluster counts diverge: %d/%d vs %d/%d",
			plain.UniqueFailures, plain.UniqueCrashes, pre.UniqueFailures, pre.UniqueCrashes)
	}
}

// TestPrecomputedFoldAllocatesNothing: a warmed engine folds a
// precomputed batch into storage it already has — the records the
// budget reserved and the engine's own feedback buffer — so FoldBatch
// allocates nothing.
func TestPrecomputedFoldAllocatesNothing(t *testing.T) {
	space := faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 9),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 1, 50),
	))
	eng, err := NewEngine(Config{Space: space, Iterations: int(space.Size())}, explore.NewExhaustive(space))
	if err != nil {
		t.Fatal(err)
	}
	const batch, runs = 8, 100
	var ets []ExecutedTest
	for len(ets) < (runs+1)*batch {
		for _, c := range eng.Lease(batch) {
			et := ExecutedTest{C: c, Rec: Record{Point: c.Point}}
			eng.Precompute(&et)
			ets = append(ets, et)
		}
	}
	if n := testing.AllocsPerRun(runs, func() {
		eng.FoldBatch(ets[:batch])
		ets = ets[batch:]
	}); n != 0 {
		t.Fatalf("folding a precomputed batch of %d allocates %v times", batch, n)
	}
	if got := eng.Snapshot().Executed; got != (runs+1)*batch {
		t.Fatalf("folded %d, want %d", got, (runs+1)*batch)
	}
}
