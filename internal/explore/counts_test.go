package explore_test

import (
	"testing"

	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/targets"
	"afex/internal/trace"
)

// TestMinedOutParentCostsALookup pins what generation does, by count, on
// the paper's single-node configuration: the mysqld model, seed 1,
// feedback on, 50 000 scenarios. Without refusal memos Next made 24.1
// History checks per accepted candidate, and 94% of its mutation
// attempts repeated one already refused for the same parent; with them a
// repeat is answered by the parent's memo. The search itself must not
// move: the same candidates, to the last RNG draw.
func TestMinedOutParentCostsALookup(t *testing.T) {
	if explore.RaceEnabled {
		t.Skip("50 000 instrumented scenarios; the lockstep tests cover the memo under -race")
	}
	target, err := targets.ByName("mysqld")
	if err != nil {
		t.Fatal(err)
	}
	space := trace.Profile(target).Describe(trace.Shape{Funcs: 19, CallLo: 1, CallHi: 2000}).Build()
	fg := explore.NewFitnessGuided(space, explore.Config{Seed: 1})
	e, err := core.NewEngine(core.Config{
		Target: target, Space: space, Feedback: true, Workers: 1, Iterations: 50000,
		Explore: explore.Config{Seed: 1},
	}, fg)
	if err != nil {
		t.Fatal(err)
	}
	e.RunLocal()

	// The parent commit's search: candidates handed out, RNG position.
	const candidates, draws = 50000, 4099768
	st := fg.ExportState().Searches[0]
	if fg.Executed() != candidates || fg.HistorySize() != candidates || st.Rng.Draws != draws {
		t.Errorf("executed %d, History %d, %d draws; want %d, %d, %d",
			fg.Executed(), fg.HistorySize(), st.Rng.Draws, candidates, candidates, draws)
	}
	admissions, answers := explore.GenerationCounts(fg)
	perCandidate := float64(admissions) / candidates
	// Every mutation attempt is either answered by a memo or admitted, so
	// this share is a floor on the memos' share of the mutation attempts.
	share := float64(answers) / float64(answers+admissions)
	t.Logf("%d admissions (%.2f a candidate), %d memo answers (%.1f%% of the checks)",
		admissions, perCandidate, answers, 100*share)
	if perCandidate > 2.0 {
		t.Errorf("%.2f admissions per candidate, want <= 2.0 (24.1 without memos)", perCandidate)
	}
	if share < 0.9 {
		t.Errorf("memos answer %.1f%% of mutation attempts, want >= 90%%", 100*share)
	}
}
