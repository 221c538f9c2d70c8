package core

import (
	"testing"

	"afex/internal/prog"
	"afex/internal/trace"
)

// TestErrnoAxisExplorationDistinguishesErrnos builds an errno-aware
// target and sweeps its detailed (Fig. 4-style) fault space: injections
// of transient errnos must be absorbed while hard errnos fail the tests,
// something the flat space cannot even express.
func TestErrnoAxisExplorationDistinguishesErrnos(t *testing.T) {
	p := prog.Generate(prog.GenSpec{
		Name:              "errnoaware",
		Seed:              77,
		Modules:           4,
		RoutinesPerModule: 4,
		MinOps:            4,
		MaxOps:            6,
		Tests:             12,
		ScriptLen:         2,
		Fragility:         1.0, // every module fragile → plenty of Propagate sites
		CrashBias:         0,
		ErrnoAware:        1.0, // every handler special-cases EINTR/EAGAIN
	})
	space := trace.Profile(p).Describe(trace.Shape{Funcs: 8, CallLo: 1, CallHi: 3, ErrnoAxis: true}).Build()
	res, err := Run(Config{Target: p, Space: space, Algorithm: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("nothing injected; detailed space mis-built")
	}
	transientFailed, transientInjected := 0, 0
	hardFailed, hardInjected := 0, 0
	for _, rec := range res.Records {
		if !rec.Outcome.Injected || len(rec.Plan.Faults) == 0 {
			continue
		}
		errno := rec.Plan.Faults[0].Err.Errno
		switch errno {
		case "EINTR", "EAGAIN":
			transientInjected++
			if rec.Outcome.Failed {
				transientFailed++
			}
		default:
			hardInjected++
			if rec.Outcome.Failed {
				hardFailed++
			}
		}
	}
	if transientInjected == 0 || hardInjected == 0 {
		t.Fatalf("degenerate sweep: transient=%d hard=%d injections", transientInjected, hardInjected)
	}
	transientRate := float64(transientFailed) / float64(transientInjected)
	hardRate := float64(hardFailed) / float64(hardInjected)
	if transientRate >= hardRate {
		t.Errorf("transient errnos fail at %.2f ≥ hard errnos %.2f; errno handling has no effect",
			transientRate, hardRate)
	}
}
