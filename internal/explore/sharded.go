package explore

import (
	"afex/internal/faultspace"
)

// Sharded partitions the fault space into n disjoint regions
// (faultspace.Union.Shard) and runs one independent instance of a
// registered strategy per region — sharded-fitness, sharded-random,
// sharded-genetic and sharded-exhaustive all compose the same way.
// Candidates are striped across the shards round-robin — BatchNext
// leases from shard 0, 1, 2, … in turn — so a parallel session's workers
// are always spread over disjoint parts of the space, and feedback for
// an executed candidate is routed back to the shard that generated it.
// Exhausted shards drop out; the session ends when every shard is
// exhausted.
//
// Each shard's search is seeded deterministically from the base seed
// (xrand.DeriveSeed), so a sharded sequential session is bit-for-bit
// reproducible, exactly like the unsharded one.
//
// Candidates are emitted in the *parent* space's coordinates (the engine
// and its executors only know the parent), while each shard's search
// runs in its own shard-local coordinates; the translation is a constant
// per-axis index offset computed once at construction.
//
// In the composition order of the exploration stack, Sharded sits
// between the strategy and the novelty filter: strategy → Sharded →
// Novel (see registry.go).
type Sharded struct {
	parent *faultspace.Union
	// strategy is the canonical name of the per-shard algorithm.
	strategy string
	shards   []*shardSearch
	rr       int
	// inflight routes Report back to the generating shard: parent point
	// key → (shard, shard-local candidate).
	inflight map[string]pendingLease
}

type pendingLease struct {
	shard int
	local Candidate
}

// shardSearch is one shard's independent search plus the coordinate
// translation onto the parent space.
type shardSearch struct {
	ex    Explorer
	space *faultspace.Union
	done  bool
	// axis[sub] is the index of the sliced axis in subspace sub (-1 when
	// the shard covers the whole subspace); off[sub] is the index offset
	// of the slice within the parent's axis.
	axis []int
	off  []int
}

// NewShardedStrategy builds a sharded explorer over space with n shards,
// each running an independent instance of the named registered strategy.
// n < 1 is treated as 1; shards that come back empty (the space is
// narrower than n along its widest axis) are dropped. Unknown strategy
// names return the registry's error.
func NewShardedStrategy(space *faultspace.Union, n int, strategy string, cfg Config) (*Sharded, error) {
	if n < 1 {
		n = 1
	}
	if canon, ok := aliases[strategy]; ok {
		strategy = canon
	}
	s := &Sharded{parent: space, strategy: strategy, inflight: make(map[string]pendingLease)}
	for i, su := range space.Shard(n) {
		if su.Size() == 0 {
			continue
		}
		sub := cfg
		// Distinct deterministic stream per shard; shard 0 of a 1-shard
		// session keeps the base seed, matching the unsharded explorer.
		sub.Seed = shardSeed(cfg.Seed, i)
		ex, err := New(strategy, su, sub)
		if err != nil {
			return nil, err
		}
		st := &shardSearch{
			ex:    ex,
			space: su,
			axis:  make([]int, len(su.Spaces)),
			off:   make([]int, len(su.Spaces)),
		}
		for j, sp := range su.Spaces {
			st.axis[j] = -1
			parentSp := space.Spaces[j]
			for k, a := range sp.Axes {
				if a.Len() == parentSp.Axes[k].Len() {
					continue
				}
				st.axis[j] = k
				if a.Len() > 0 {
					st.off[j] = parentSp.Axes[k].Index(a.Value(0))
				}
				break
			}
		}
		s.shards = append(s.shards, st)
	}
	return s, nil
}

// Name implements Named: "sharded-" plus the wrapped strategy's name.
func (s *Sharded) Name() string { return "sharded-" + s.strategy }

// Strategy returns the canonical name of the per-shard algorithm.
func (s *Sharded) Strategy() string { return s.strategy }

// Shards reports how many non-empty shards the explorer runs.
func (s *Sharded) Shards() int { return len(s.shards) }

// toParent translates a shard-local candidate into parent coordinates;
// a point that moves is keyed again, once, where it is.
func (st *shardSearch) toParent(c Candidate) Candidate {
	sub := c.Point.Sub
	k := st.axis[sub]
	if k < 0 || st.off[sub] == 0 {
		return c
	}
	f := c.Point.Fault.Clone()
	f[k] += st.off[sub]
	c.Point = faultspace.Point{Sub: sub, Fault: f}
	c.key = c.Point.Key()
	return c
}

// Next implements Explorer: one candidate from the next live shard in
// round-robin order.
func (s *Sharded) Next() (Candidate, bool) {
	for scanned := 0; scanned < len(s.shards); scanned++ {
		idx := s.rr
		s.rr = (s.rr + 1) % len(s.shards)
		st := s.shards[idx]
		if st.done {
			continue
		}
		local, ok := st.ex.Next()
		if !ok {
			st.done = true
			continue
		}
		c := st.toParent(local)
		s.inflight[c.Key()] = pendingLease{shard: idx, local: local}
		return c, true
	}
	return Candidate{}, false
}

// BatchNext implements BatchNexter: up to n candidates striped across
// the live shards (shard 0, 1, 2, … round-robin), so a batch leased by
// one worker still spans disjoint regions of the space.
func (s *Sharded) BatchNext(n int) []Candidate { return nextEach(s, n) }

// toLocal translates a parent-coordinate point into the shard's local
// coordinates, reporting whether the shard owns it.
func (st *shardSearch) toLocal(p faultspace.Point) (faultspace.Point, bool) {
	if p.Sub < 0 || p.Sub >= len(st.axis) {
		return faultspace.Point{}, false
	}
	f := p.Fault
	if k := st.axis[p.Sub]; k >= 0 {
		if k >= len(f) {
			return faultspace.Point{}, false
		}
		g := f.Clone()
		g[k] -= st.off[p.Sub]
		f = g
	}
	if !st.space.Spaces[p.Sub].Contains(f) {
		return faultspace.Point{}, false
	}
	return faultspace.Point{Sub: p.Sub, Fault: f}, true
}

// locate finds the shard owning a parent-coordinate point. Shards
// partition the space, so at most one shard claims any point.
func (s *Sharded) locate(p faultspace.Point) (int, faultspace.Point, bool) {
	for i, st := range s.shards {
		if local, ok := st.toLocal(p); ok {
			return i, local, true
		}
	}
	return 0, faultspace.Point{}, false
}

// ShardOf returns the index of the shard owning the parent-coordinate
// point p, or -1 when no shard contains it. Sessions use it to label
// records with their shard for the persistent journal.
func (s *Sharded) ShardOf(p faultspace.Point) int {
	if i, _, ok := s.locate(p); ok {
		return i
	}
	return -1
}

// route resolves a reported candidate to its owning shard and
// shard-local candidate: through the inflight table for leases this
// explorer handed out, or by shard geometry for externally sourced
// feedback — a persisted journal replayed on resume, or a novelty filter
// marking a prior run's scenario as executed. Geometry-routed candidates
// keep their mutation provenance: Shard slices axes without reordering
// them, so a parent-space MutatedAxis indexes the same axis in the
// shard-local space, and replayed tail feedback updates the same
// sensitivity window a live fold would have.
func (s *Sharded) route(c Candidate) (int, Candidate, bool) {
	key := c.Key()
	if p, ok := s.inflight[key]; ok {
		delete(s.inflight, key)
		return p.shard, p.local, true
	}
	if i, local, ok := s.locate(c.Point); ok {
		c.Point, c.key = local, ""
		return i, c, true
	}
	return 0, Candidate{}, false
}

// Report implements Explorer: feedback is routed to the shard that
// generated the candidate, in that shard's local coordinates.
func (s *Sharded) Report(c Candidate, impact, fitness float64) {
	if shard, local, ok := s.route(c); ok {
		s.shards[shard].ex.Report(local, impact, fitness)
	}
}

// Skip implements Skipper: an outer novelty filter vetoed the
// candidate, so it is committed to the owning shard's history (in
// shard-local coordinates) without counting as an executed test or
// distorting the shard's search state.
func (s *Sharded) Skip(c Candidate) {
	if shard, local, ok := s.route(c); ok {
		s.shards[shard].ex.Skip(local)
	}
}

// ReportBatch implements BatchReporter: the batch is split by owning
// shard (preserving per-shard order — the only order a shard's
// independent search can observe) and fed through each shard's batched
// report path.
func (s *Sharded) ReportBatch(batch []Feedback) {
	if len(batch) == 0 {
		return
	}
	perShard := make([][]Feedback, len(s.shards))
	for _, fb := range batch {
		shard, local, ok := s.route(fb.C)
		if !ok {
			continue
		}
		fb.C = local
		perShard[shard] = append(perShard[shard], fb)
	}
	for i, st := range s.shards {
		if len(perShard[i]) > 0 {
			st.ex.ReportBatch(perShard[i])
		}
	}
}

// Executed implements Countable: tests reported back, summed over
// shards.
func (s *Sharded) Executed() int {
	n := 0
	for _, st := range s.shards {
		n += st.ex.Executed()
	}
	return n
}

// HistorySize implements Countable: distinct tests committed across all
// shards (shards are disjoint, so the sum is exact).
func (s *Sharded) HistorySize() int {
	n := 0
	for _, st := range s.shards {
		n += st.ex.HistorySize()
	}
	return n
}

// Sensitivities implements Sensitive: each shard weighs its own axes,
// and no one vector speaks for the whole space.
func (s *Sharded) Sensitivities(int) []float64 { return nil }

// ArmStats implements ArmReporter when the wrapped strategy does
// (sharded-portfolio): per-arm statistics are summed across shards by
// arm name, so the session reports one bandit roster regardless of the
// shard count. Returns nil for non-portfolio strategies.
func (s *Sharded) ArmStats() []ArmStat {
	var agg []ArmStat
	idx := make(map[string]int)
	for _, st := range s.shards {
		ar, ok := st.ex.(ArmReporter)
		if !ok {
			continue
		}
		for _, a := range ar.ArmStats() {
			j, seen := idx[a.Name]
			if !seen {
				j = len(agg)
				idx[a.Name] = j
				agg = append(agg, ArmStat{Name: a.Name})
			}
			agg[j].Pulls += a.Pulls
			agg[j].Reward += a.Reward
		}
	}
	for i := range agg {
		if agg[i].Pulls > 0 {
			agg[i].Mean = agg[i].Reward / float64(agg[i].Pulls)
		}
	}
	return agg
}
