package explore

// Batched candidate leasing. Fault-injection tests are embarrassingly
// parallel (§6.1), so the execution engine runs many node managers
// against one explorer. The explorer itself is cheap — §7.7 measures it
// at thousands of generated tests per second — but every Next/Report
// crosses the engine's session lock. The batched path lets the engine
// lease n candidates (and fold n results) per lock acquisition,
// amortizing coordination over the batch, exactly the way the RPC
// protocol amortizes network round-trips.
//
// Every Explorer has both batch methods. Every search generates one
// candidate at a time (mutation, rejection sampling, the bandit's
// per-lease decision, the shards' round-robin, the novelty filter, the
// enumeration cursor) and leases through nextEach; all but enumeration
// fold through reportEach. So a batch is n single steps and the win is
// the one lock round-trip.

// Prefetchable and IsPrefetchable stay only because package bench names
// them and may change only in a [benchmark] PR: nothing else implements
// or reads them, and ROADMAP item 7(d) removes both.
type Prefetchable interface {
	Prefetchable() bool
}

// IsPrefetchable is false for every explorer; see Prefetchable.
func IsPrefetchable(ex Explorer) bool {
	p, ok := ex.(Prefetchable)
	return ok && p.Prefetchable()
}

// BatchNexter is the batched lease of an Explorer: one call produces up
// to n candidates. Implementations must return exactly the candidates
// that n successive Next calls would have produced, so that batched and
// unbatched sessions explore the same space.
type BatchNexter interface {
	// BatchNext returns up to n candidates; fewer (possibly zero) when
	// the explorer is exhausted.
	BatchNext(n int) []Candidate
}

// Feedback is one executed candidate's result, for ReportBatch.
type Feedback struct {
	C Candidate
	// Impact is the measured impact IS(φ).
	Impact float64
	// Fitness is the (possibly feedback-weighted, §7.4) value the search
	// should learn from.
	Fitness float64
	// NewCluster reports that the test opened a new failure redundancy
	// cluster — a distinct injection-point stack no earlier test
	// produced. Only the engine's clustering authority can know this, so
	// it rides the batched feedback path; explorers that learn from
	// uniqueness (the portfolio bandit's reward) read it, everything
	// else ignores it. Plain Report calls imply NewCluster == false.
	NewCluster bool
}

// BatchReporter is the batched counterpart of Report. Implementations
// must be equivalent to reporting each Feedback in order.
type BatchReporter interface {
	ReportBatch(batch []Feedback)
}

// BatchNext leases up to n candidates from ex; n <= 0 yields nil.
func BatchNext(ex Explorer, n int) []Candidate {
	if n <= 0 {
		return nil
	}
	return ex.BatchNext(n)
}

// ReportBatch feeds a batch of executed candidates back to ex, in order.
func ReportBatch(ex Explorer, batch []Feedback) {
	if len(batch) > 0 {
		ex.ReportBatch(batch)
	}
}

// nextEach is BatchNext as up to n Next calls, stopping early on
// exhaustion. n may come off the wire, so the room reserved up front is
// at most the largest lease a coordinator hands out (core.MaxWireBatch).
func nextEach(ex Explorer, n int) []Candidate {
	if n <= 0 {
		return nil
	}
	out := make([]Candidate, 0, min(n, 512))
	for len(out) < n {
		c, ok := ex.Next()
		if !ok {
			break
		}
		out = append(out, c)
	}
	return out
}

// reportEach is ReportBatch as one Report per Feedback, in order.
func reportEach(ex Explorer, batch []Feedback) {
	for _, f := range batch {
		ex.Report(f.C, f.Impact, f.Fitness)
	}
}

// BatchNext implements BatchNexter: a cut from the enumeration cursor,
// nothing at all once it has ended.
func (e *Exhaustive) BatchNext(n int) []Candidate {
	if e.sub >= len(e.space.Spaces) {
		return nil
	}
	return nextEach(e, n)
}
