package core

import (
	"math"
	"testing"

	"afex/internal/backend"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
	"afex/internal/quality"
)

// retryTarget has recovery code that survives any single fault: the read
// is retried once, so only failing both call n and call n+1 in one run
// makes the test fail. This is the class of bug only multi-fault
// exploration can trigger.
func retryTarget() *prog.Program {
	p := &prog.Program{
		Name: "retryer",
		Routines: map[string]*prog.Routine{
			"r": {Name: "r", Module: "m", Ops: []prog.Op{
				{Func: "read", OnError: prog.Retry, Block: 1},
				{Func: "write", OnError: prog.Tolerate, Block: 2},
			}},
		},
		TestSuite: []prog.Test{{Name: "t0", Script: []string{"r"}}},
		NumBlocks: 2,
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// pairSpace is a hand-built two-fault space over the retry target.
func pairSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("pairs",
		faultspace.IntAxis("testID", 0, 0),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 0, 2),
		faultspace.SetAxis("function2", "read", "write"),
		faultspace.IntAxis("callNumber2", 0, 2),
	))
}

func TestSingleFaultCannotBreakRetry(t *testing.T) {
	single := faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 0),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 0, 2),
	))
	res, err := Run(Config{Target: retryTarget(), Space: single, Algorithm: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("single-fault exploration failed %d tests; the retry should absorb every single fault", res.Failed)
	}
}

func TestPairFaultBreaksRetry(t *testing.T) {
	res, err := Run(Config{Target: retryTarget(), Space: pairSpace(), Algorithm: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("pair exploration found no failures; retry exhaustion should be reachable")
	}
	// The failing scenarios must be exactly ⟨read@1, read@2⟩ in either
	// slot order.
	for _, rec := range res.Records {
		if !rec.Outcome.Failed {
			continue
		}
		if len(rec.Plan.Faults) != 2 {
			t.Fatalf("failing plan has %d faults: %v", len(rec.Plan.Faults), rec.Plan)
		}
		calls := map[int]bool{}
		for _, f := range rec.Plan.Faults {
			if f.Function != "read" {
				t.Fatalf("failing plan injects %s; only read faults can break the retry", f.Function)
			}
			calls[f.CallNumber] = true
		}
		if !calls[1] || !calls[2] {
			t.Fatalf("failing plan is not the 1+2 retry exhaustion: %v", rec.Plan)
		}
	}
}

func TestFitnessExploresPairSpace(t *testing.T) {
	res, err := Run(Config{
		Target:     retryTarget(),
		Space:      pairSpace(),
		Algorithm:  "fitness",
		Iterations: 81, // the whole 1×2×3×2×3 space
		Explore:    explore.Config{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Error("fitness-guided pair exploration missed the retry exhaustion")
	}
}

func TestMeasurePrecisionDeterministicTarget(t *testing.T) {
	res, err := Run(Config{Target: sessionTarget(), Space: sessionSpace(), Algorithm: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := backend.New(backend.Model, backend.Config{Target: sessionTarget()})
	if err != nil {
		t.Fatal(err)
	}
	reps := res.MeasurePrecision(runner, DefaultImpact(), 5)
	if len(reps) == 0 {
		t.Fatal("no representatives measured")
	}
	for _, rec := range reps {
		if !math.IsInf(rec.Precision, 1) {
			t.Errorf("deterministic target: precision = %v, want +Inf", rec.Precision)
		}
		if res.Records[rec.ID].Precision != rec.Precision {
			t.Error("precision not reflected into the session record")
		}
	}
}

func TestRelevanceRecorded(t *testing.T) {
	model := quality.Paper75Model()
	im := DefaultImpact()
	im.Relevance = model
	res, err := Run(Config{
		Target:    sessionTarget(),
		Space:     sessionSpace(),
		Algorithm: "exhaustive",
		Impact:    im,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if len(rec.Plan.Faults) == 0 {
			continue
		}
		want := model.Weight(rec.Plan.Faults[0].Function)
		if rec.Relevance != want {
			t.Fatalf("record %d relevance %v, want %v", rec.ID, rec.Relevance, want)
		}
	}
}
