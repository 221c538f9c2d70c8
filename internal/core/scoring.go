package core

import (
	"math"

	"afex/internal/inject"
	"afex/internal/prog"
	"afex/internal/quality"
)

// ImpactConfig scores an outcome the way §6.4 step 3 suggests:
// "allocate scores to each event of interest, such as 1 point for each
// newly covered basic block, 10 points for each hang bug found, 20
// points for each crash".
//
// This is the single impact-scoring authority of the engine: the local
// worker pool and the distributed coordinator (package rpcnode) both
// fold results through it, so a fault scores identically no matter where
// its test ran.
type ImpactConfig struct {
	// PerNewBlock is the score per basic block not covered by any earlier
	// test in this session.
	PerNewBlock float64
	// Failed is the score when the injected fault makes the test fail.
	Failed float64
	// Crash is the score for a process crash.
	Crash float64
	// Hang is the score for a hang.
	Hang float64
	// Relevance optionally weighs the impact by the statistical
	// environment model (§7.5): the measured impact is multiplied by the
	// normalized probability of the failed function's fault class (a NaN
	// or infinite weight folds as 0).
	Relevance *quality.RelevanceModel
	// Score, if non-nil, replaces the additive scoring entirely: it
	// receives the outcome, the count of newly covered blocks, the armed
	// plan and the test id, and returns the impact. Sessions with an
	// explicit search target use it to encode that target (e.g. "a
	// malloc fault that fails an ln test is what we are looking for").
	// Relevance still applies on top. A NaN or infinite impact folds as
	// 0: the journal cannot encode it, nor the search learn from it.
	Score func(out prog.Outcome, newBlocks int, plan inject.Plan, testID int) float64
}

// DefaultImpact returns the scoring used throughout the evaluation.
func DefaultImpact() ImpactConfig {
	return ImpactConfig{PerNewBlock: 1, Failed: 10, Crash: 20, Hang: 15}
}

// zero reports whether the config selects no scoring at all, in which
// case sessions substitute DefaultImpact.
func (im ImpactConfig) zero() bool {
	return im.PerNewBlock == 0 && im.Failed == 0 && im.Crash == 0 &&
		im.Hang == 0 && im.Relevance == nil && im.Score == nil
}

// outcomeBase is the additive outcome component of the score — what an
// injection is worth independent of coverage novelty. MeasurePrecision
// re-scores representatives with it, since coverage is session state,
// not a property of the fault.
func (im ImpactConfig) outcomeBase(out prog.Outcome) float64 {
	if !out.Injected {
		return 0
	}
	switch {
	case out.Crashed:
		return im.Crash
	case out.Hung:
		return im.Hang
	case out.Failed:
		return im.Failed
	}
	return 0
}

// score computes the impact IS(φ) of one executed test and the relevance
// weight applied (0 when the session has no relevance model).
func (im ImpactConfig) score(out prog.Outcome, newBlocks int, plan inject.Plan, testID int) (impact, relevance float64) {
	if im.Score != nil {
		impact = im.Score(out, newBlocks, plan, testID)
	} else {
		impact = im.PerNewBlock*float64(newBlocks) + im.outcomeBase(out)
	}
	if im.Relevance != nil && len(plan.Faults) > 0 {
		relevance = finite(im.Relevance.Weight(plan.Faults[0].Function))
		impact *= relevance
	}
	return finite(impact), relevance
}

// finite is x, or 0 for a NaN or an infinity.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
