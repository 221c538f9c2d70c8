package explore

// Explorer state serialization. A persistent exploration session (see
// internal/store) snapshots the explorer so a later process resumes the
// search where it stopped: the priority pool, per-axis sensitivity
// windows, History, and the exact RNG stream position all round-trip, so
// a resumed sequential session generates the same candidates an
// uninterrupted one would have.
//
// Exporting copies what mutates in place (pool, windows, bandit
// counters) and takes the executed-key sets — History, the portfolio's
// Seen — as views (Keys) of their sets, in the order the keys entered;
// importing builds a set over the list it is given without copying it,
// on the list's own base: a list the store decoded as a prefix of the
// session's executed keys is read through the store's one index of them.
// The engine exports under its locks on every snapshot, so nothing here
// may cost O(session); a State is read-only to its holder.
//
// What is deliberately NOT exported is the queued set (candidates leased
// but never folded back): a crash loses their outcomes, so they must be
// regenerable, and dropping them from the state is exactly what lets the
// resumed search lease them again.

import (
	"fmt"

	"afex/internal/faultspace"
	"afex/internal/xrand"
)

// StatefulExplorer exports the search state for persistence and
// imports it into a freshly constructed explorer over the same space.
type StatefulExplorer interface {
	// ExportState returns a serializable snapshot of the search state.
	ExportState() *State
	// ImportState replaces the explorer's state with a previously
	// exported snapshot. The explorer must have been constructed over
	// the same fault space (and, for sharded explorers, the same shard
	// count) as the exporter; mismatches return an error.
	ImportState(*State) error
}

// Sensitive exposes the normalized per-axis sensitivity vector of a
// subspace (the §7.3 structure analysis), nil for a search that weighs
// no axis. The engine uses it to fill ResultSet.Sensitivities without
// depending on a concrete explorer type.
type Sensitive interface {
	Sensitivities(sub int) []float64
}

// State is a serializable explorer snapshot. Flat strategies (fitness,
// random, genetic, exhaustive) fill Searches with one entry; the sharded
// meta-explorer nests one child State per shard; the portfolio
// meta-explorer nests one child State per arm plus the bandit's own
// statistics. Meta-explorers compose, so a sharded-portfolio session
// round-trips as shards of arms.
type State struct {
	// Algorithm names the exporting explorer ("fitness",
	// "sharded-fitness", "portfolio", …); imports verify it matches.
	Algorithm string `json:"algorithm"`
	// RR is the sharded explorer's round-robin cursor.
	RR int `json:"rr,omitempty"`
	// Searches holds a flat strategy's single search state.
	Searches []SearchState `json:"searches,omitempty"`
	// Shards holds one nested explorer state per shard, in shard order;
	// an import leaves a shard whose entry is nil (older builds wrote
	// nil for stateless shards) as constructed.
	Shards []*State `json:"shards,omitempty"`
	// Arms holds the portfolio explorer's per-arm bandit statistics and
	// nested explorer states, in arm order.
	Arms []ArmSnapshot `json:"arms,omitempty"`
	// Seen is the portfolio's shared executed-key set, in report order
	// (in-flight leases are excluded: a crash loses their outcomes, so
	// the resumed search must be able to regenerate them).
	Seen *Keys `json:"seen,omitempty"`
	// MaxFitness is the portfolio's running reward normalizer.
	MaxFitness float64 `json:"maxFitness,omitempty"`
}

// SearchState is one flat search's serializable state. The fitness-
// guided explorer uses every field; random uses Rng/History/Executed;
// genetic uses Rng/Pool/Offspring/History/Executed; exhaustive uses
// Cursor/Executed.
type SearchState struct {
	// Rng pins the exact position in the random stream.
	Rng xrand.State `json:"rng"`
	// Pool is Qpriority (or the genetic population) in slice order
	// (order matters: weighted selection and eviction walk it
	// deterministically).
	Pool []PoolEntry `json:"pool"`
	// Offspring is the genetic explorer's generated-but-not-yet-executed
	// queue, in emission order.
	Offspring []PoolEntry `json:"offspring,omitempty"`
	// History holds every executed point key, in the order the search
	// committed them; import keeps the order, whatever it is.
	History *Keys `json:"history"`
	// SeedsLeft counts remaining initial random seeds.
	SeedsLeft int `json:"seedsLeft"`
	// Executed is the number of tests reported back.
	Executed int `json:"executed"`
	// Cursor is the exhaustive explorer's enumeration position.
	Cursor int `json:"cursor,omitempty"`
	// Sens is the per-subspace, per-axis sensitivity ring buffers.
	Sens [][]WindowState `json:"sens"`
}

// PoolEntry is one serialized Qpriority member.
type PoolEntry struct {
	Sub     int     `json:"sub"`
	Fault   []int   `json:"fault"`
	Fitness float64 `json:"fitness"`
	Impact  float64 `json:"impact"`
}

// WindowState is one serialized sensitivity ring buffer. Sum is the
// window's running sum as the live explorer holds it: push maintains it
// incrementally, so once the ring has wrapped over non-integral values
// it differs from Σ Vals in its last bits, and a resumed search must
// weigh its axes by the same float the killed one did. Nil in states
// written before the field existed; the sum is then recomputed from
// Vals, as those builds did.
type WindowState struct {
	Vals []float64 `json:"vals"`
	Next int       `json:"next"`
	Sum  *float64  `json:"sum,omitempty"`
}

// ExportState implements StatefulExplorer.
func (fg *FitnessGuided) ExportState() *State {
	return &State{Algorithm: fg.Name(), Searches: []SearchState{fg.exportSearch()}}
}

// ImportState implements StatefulExplorer.
func (fg *FitnessGuided) ImportState(st *State) error {
	if st == nil || st.Algorithm != fg.Name() {
		return fmt.Errorf("explore: state is %q, explorer is %q", stateAlg(st), fg.Name())
	}
	if len(st.Searches) != 1 {
		return fmt.Errorf("explore: fitness state has %d searches, want 1", len(st.Searches))
	}
	return fg.importSearch(&st.Searches[0])
}

func stateAlg(st *State) string {
	if st == nil {
		return "<nil>"
	}
	return st.Algorithm
}

func (fg *FitnessGuided) exportSearch() SearchState {
	st := SearchState{
		Rng:       fg.rng.State(),
		SeedsLeft: fg.seedsLeft,
		Executed:  fg.executedN,
	}
	st.Pool = make([]PoolEntry, len(fg.pool))
	for i, e := range fg.pool {
		st.Pool[i] = PoolEntry{
			Sub:     e.point.Sub,
			Fault:   append([]int(nil), e.point.Fault...),
			Fitness: e.fitness,
			Impact:  e.impact,
		}
	}
	st.History = fg.history.Keys()
	st.Sens = make([][]WindowState, len(fg.sens))
	for i, ws := range fg.sens {
		st.Sens[i] = make([]WindowState, len(ws))
		for k, w := range ws {
			sum := w.sum
			st.Sens[i][k] = WindowState{Vals: append([]float64(nil), w.vals...), Next: w.next, Sum: &sum}
		}
	}
	return st
}

func (fg *FitnessGuided) importSearch(st *SearchState) error {
	if len(st.Sens) != len(fg.sens) {
		return fmt.Errorf("explore: state has %d subspaces, space has %d", len(st.Sens), len(fg.sens))
	}
	for i := range st.Sens {
		if len(st.Sens[i]) != len(fg.sens[i]) {
			return fmt.Errorf("explore: state subspace %d has %d axes, space has %d", i, len(st.Sens[i]), len(fg.sens[i]))
		}
		for k := range st.Sens[i] {
			w := &st.Sens[i][k]
			if len(w.Vals) > sensitivityWindow {
				return fmt.Errorf("explore: state sensitivity window %d exceeds configured %d",
					len(w.Vals), sensitivityWindow)
			}
			// The ring cursor must index into Vals (or be 0 while the
			// window is still filling); a corrupt cursor would panic on
			// the first push after resume.
			if w.Next < 0 || (w.Next != 0 && w.Next >= len(w.Vals)) {
				return fmt.Errorf("explore: state sensitivity cursor %d out of range for window of %d", w.Next, len(w.Vals))
			}
		}
	}
	for _, pe := range st.Pool {
		if pe.Sub < 0 || pe.Sub >= len(fg.space.Spaces) || !fg.space.Spaces[pe.Sub].Contains(faultspace.Fault(pe.Fault)) {
			return fmt.Errorf("explore: pool entry %d:%v outside the space", pe.Sub, pe.Fault)
		}
	}

	fg.rng = xrand.Restore(st.Rng)
	fg.seedsLeft = st.SeedsLeft
	fg.executedN = st.Executed
	fg.pool = make([]*executed, len(st.Pool))
	for i, pe := range st.Pool {
		p := faultspace.Point{Sub: pe.Sub, Fault: append(faultspace.Fault(nil), pe.Fault...)}
		fg.pool[i] = &executed{point: p, key: p.Key(), fitness: pe.Fitness, impact: pe.Impact}
	}
	fg.history = *st.History.Set()
	// Dropping the queued keys is the one place "taken" shrinks, so no
	// refusal memo may outlive it: each dies with the pool it described.
	fg.queued = make(map[string]bool)
	fg.refused = make([]*refusals, len(fg.pool))
	for i := range st.Sens {
		for k := range st.Sens[i] {
			w := newAxisWindow(sensitivityWindow)
			w.vals = append(w.vals, st.Sens[i][k].Vals...)
			w.next = st.Sens[i][k].Next
			if sum := st.Sens[i][k].Sum; sum != nil {
				w.sum = *sum
			} else {
				for _, v := range w.vals {
					w.sum += v
				}
			}
			fg.sens[i][k] = w
		}
	}
	return nil
}

// ExportState implements StatefulExplorer: one nested child state per
// shard plus the round-robin cursor. Candidates in flight (leased, not
// folded) are intentionally not part of the state — a crash loses their
// outcomes, and omitting them lets the resumed search regenerate them.
func (s *Sharded) ExportState() *State {
	st := &State{Algorithm: s.Name(), RR: s.rr}
	st.Shards = make([]*State, len(s.shards))
	for i, sh := range s.shards {
		st.Shards[i] = sh.ex.ExportState()
	}
	return st
}

// ImportState implements StatefulExplorer. The explorer must have been
// built over the same space with the same shard count and strategy.
// Snapshots written before the strategy generalization (one flat
// SearchState per shard instead of nested child states) are migrated in
// place — sharded-fitness was the only sharded form then.
func (s *Sharded) ImportState(st *State) error {
	if st == nil || st.Algorithm != s.Name() {
		return fmt.Errorf("explore: state is %q, explorer is %q", stateAlg(st), s.Name())
	}
	if len(st.Shards) == 0 && len(st.Searches) > 0 {
		if err := s.importLegacySearches(st); err != nil {
			return err
		}
	}
	if len(st.Shards) != len(s.shards) {
		return fmt.Errorf("explore: state has %d shards, explorer has %d", len(st.Shards), len(s.shards))
	}
	if st.RR < 0 {
		return fmt.Errorf("explore: state round-robin cursor %d is negative", st.RR)
	}
	for i, sh := range s.shards {
		if child := st.Shards[i]; child != nil {
			if err := sh.ex.ImportState(child); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		sh.done = false
	}
	s.rr = st.RR
	if len(s.shards) > 0 {
		s.rr %= len(s.shards)
	}
	s.inflight = make(map[string]pendingLease)
	return nil
}

// importLegacySearches rewrites a pre-generalization sharded snapshot
// ("searches": one flat fitness SearchState per shard) into the nested
// Shards form, so state dirs written by older releases still resume.
// Only the fitness strategy existed under sharding then, so any other
// wrapped strategy is a genuine mismatch.
func (s *Sharded) importLegacySearches(st *State) error {
	if s.strategy != "fitness" {
		return fmt.Errorf("explore: legacy sharded state carries fitness searches, explorer is %q", s.Name())
	}
	if len(st.Searches) != len(s.shards) {
		return fmt.Errorf("explore: legacy state has %d shards, explorer has %d", len(st.Searches), len(s.shards))
	}
	st.Shards = make([]*State, len(st.Searches))
	for i := range st.Searches {
		st.Shards[i] = &State{Algorithm: "fitness", Searches: st.Searches[i : i+1]}
	}
	st.Searches = nil
	return nil
}

// ExportState implements StatefulExplorer for the random baseline: the
// RNG position and History round-trip, so a resumed sequential session
// draws the exact points an uninterrupted one would have.
func (r *Random) ExportState() *State {
	st := SearchState{Rng: r.rng.State(), Executed: r.executedN}
	st.History = r.history.Keys()
	return &State{Algorithm: r.Name(), Searches: []SearchState{st}}
}

// ImportState implements StatefulExplorer.
func (r *Random) ImportState(st *State) error {
	if st == nil || st.Algorithm != r.Name() {
		return fmt.Errorf("explore: state is %q, explorer is %q", stateAlg(st), r.Name())
	}
	if len(st.Searches) != 1 {
		return fmt.Errorf("explore: random state has %d searches, want 1", len(st.Searches))
	}
	src := &st.Searches[0]
	r.rng = xrand.Restore(src.Rng)
	r.executedN = src.Executed
	r.history = *src.History.Set()
	return nil
}

// ExportState implements StatefulExplorer for the genetic baseline:
// RNG position, population, the bred-but-unexecuted offspring queue and
// History all round-trip. The queued set (leased, not folded) is
// dropped, exactly like the fitness explorer's: a crash loses those
// outcomes, and the points must stay regenerable.
func (g *Genetic) ExportState() *State {
	st := SearchState{Rng: g.rng.State(), Executed: g.executedN}
	st.Pool = make([]PoolEntry, len(g.population))
	for i, e := range g.population {
		st.Pool[i] = PoolEntry{
			Sub:     e.point.Sub,
			Fault:   append([]int(nil), e.point.Fault...),
			Fitness: e.fitness,
			Impact:  e.impact,
		}
	}
	st.Offspring = make([]PoolEntry, len(g.offspring))
	for i, c := range g.offspring {
		st.Offspring[i] = PoolEntry{
			Sub:   c.Point.Sub,
			Fault: append([]int(nil), c.Point.Fault...),
		}
	}
	st.History = g.history.Keys()
	return &State{Algorithm: g.Name(), Searches: []SearchState{st}}
}

// ImportState implements StatefulExplorer.
func (g *Genetic) ImportState(st *State) error {
	if st == nil || st.Algorithm != g.Name() {
		return fmt.Errorf("explore: state is %q, explorer is %q", stateAlg(st), g.Name())
	}
	if len(st.Searches) != 1 {
		return fmt.Errorf("explore: genetic state has %d searches, want 1", len(st.Searches))
	}
	src := &st.Searches[0]
	for _, pe := range append(append([]PoolEntry(nil), src.Pool...), src.Offspring...) {
		if pe.Sub < 0 || pe.Sub >= len(g.space.Spaces) || !g.space.Spaces[pe.Sub].Contains(faultspace.Fault(pe.Fault)) {
			return fmt.Errorf("explore: genetic entry %d:%v outside the space", pe.Sub, pe.Fault)
		}
	}
	g.rng = xrand.Restore(src.Rng)
	g.executedN = src.Executed
	g.population = make([]*executed, len(src.Pool))
	for i, pe := range src.Pool {
		p := faultspace.Point{Sub: pe.Sub, Fault: append(faultspace.Fault(nil), pe.Fault...)}
		g.population[i] = &executed{point: p, key: p.Key(), fitness: pe.Fitness, impact: pe.Impact}
	}
	g.offspring = make([]Candidate, len(src.Offspring))
	for i, pe := range src.Offspring {
		p := faultspace.Point{Sub: pe.Sub, Fault: append(faultspace.Fault(nil), pe.Fault...)}
		g.offspring[i] = Candidate{Point: p, MutatedAxis: -1}
	}
	g.history = *src.History.Set()
	g.queued = make(map[string]bool)
	return nil
}

// ExportState implements StatefulExplorer for the exhaustive baseline:
// only the enumeration cursor matters (the order is the space's own).
func (e *Exhaustive) ExportState() *State {
	return &State{Algorithm: e.Name(), Searches: []SearchState{{Cursor: e.next, Executed: e.executedN}}}
}

// ImportState implements StatefulExplorer: the cursor walks from the
// space's first point to the recorded one.
func (e *Exhaustive) ImportState(st *State) error {
	if st == nil || st.Algorithm != e.Name() {
		return fmt.Errorf("explore: state is %q, explorer is %q", stateAlg(st), e.Name())
	}
	if len(st.Searches) != 1 {
		return fmt.Errorf("explore: exhaustive state has %d searches, want 1", len(st.Searches))
	}
	src := &st.Searches[0]
	w := NewExhaustive(e.space)
	for w.next < src.Cursor && w.sub < len(w.space.Spaces) {
		w.advance()
		w.next++
	}
	if src.Cursor < 0 || src.Cursor > w.next {
		return fmt.Errorf("explore: exhaustive cursor %d out of range for %d points", src.Cursor, w.next)
	}
	*e = *w
	e.executedN = src.Executed
	return nil
}

// Novel filters an explorer through a set of already-executed scenario
// keys — the cross-run novelty filter of the persistent store. Candidates
// whose key was executed by a previous run are not handed out again;
// instead the inner explorer Skips them into its History, so the search
// never regenerates them (no aging step, no pool entry, no sensitivity
// or bandit distortion: the collision says nothing about the fault
// space). Every skip strictly grows the inner explorer's History, so
// filtering terminates: Next returns false only when the inner explorer
// is exhausted. Everything else delegates to the inner explorer.
type Novel struct {
	inner Explorer
	seen  *KeySet
}

// NewNovel wraps inner with the seen-key filter; it only ever reads seen,
// so the set may be shared. A nil or empty seen set leaves the inner
// explorer's behaviour as it is.
func NewNovel(inner Explorer, seen *KeySet) *Novel {
	return &Novel{inner: inner, seen: seen}
}

// Name implements Named with the inner explorer's name.
func (n *Novel) Name() string { return n.inner.Name() }

// Next implements Explorer, skipping seen candidates.
func (n *Novel) Next() (Candidate, bool) {
	for {
		c, ok := n.inner.Next()
		if !ok {
			return Candidate{}, false
		}
		if !n.seen.Has(c.Key()) {
			return c, true
		}
		n.inner.Skip(c)
	}
}

// BatchNext implements BatchNexter as k filtered Next calls: each seen
// key is skipped before the next draw, as in k single leases, which an
// explorer whose Skip moves its own choices (the portfolio releases the
// arm's pending lease) needs to lease the same candidates either way.
func (n *Novel) BatchNext(k int) []Candidate { return nextEach(n, k) }

// Report implements Explorer by delegation.
func (n *Novel) Report(c Candidate, impact, fitness float64) { n.inner.Report(c, impact, fitness) }

// ReportBatch implements BatchReporter by delegation.
func (n *Novel) ReportBatch(batch []Feedback) { n.inner.ReportBatch(batch) }

// Skip implements Skipper by delegation.
func (n *Novel) Skip(c Candidate) { n.inner.Skip(c) }

// Executed implements Countable by delegation.
func (n *Novel) Executed() int { return n.inner.Executed() }

// HistorySize implements Countable by delegation.
func (n *Novel) HistorySize() int { return n.inner.HistorySize() }

// Sensitivities implements Sensitive by delegation.
func (n *Novel) Sensitivities(sub int) []float64 { return n.inner.Sensitivities(sub) }

// ArmStats delegates to the inner explorer when it is an ArmReporter,
// so a novelty-filtered portfolio still reports its bandit statistics.
func (n *Novel) ArmStats() []ArmStat {
	if a, ok := n.inner.(ArmReporter); ok {
		return a.ArmStats()
	}
	return nil
}

// ExportState implements StatefulExplorer by delegation.
func (n *Novel) ExportState() *State { return n.inner.ExportState() }

// ImportState implements StatefulExplorer by delegation.
func (n *Novel) ImportState(st *State) error { return n.inner.ImportState(st) }
