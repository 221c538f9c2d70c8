// Package explore implements AFEX's fault exploration algorithms (§3):
// the fitness-guided search of Algorithm 1, plus the random and
// exhaustive baselines, all behind one Explorer interface.
//
// The fitness-guided explorer is, in the paper's words, "a variation of
// stochastic beam search — parallel hill-climbing with a common pool of
// candidate states — enhanced with sensitivity analysis and Gaussian
// value selection". Its moving parts:
//
//   - Qpriority: a bounded priority pool of already-executed high-fitness
//     tests. Parents are sampled from it with probability proportional to
//     fitness; when full, victims are dropped with probability inversely
//     proportional to fitness.
//   - Qpending: generated-but-not-yet-executed candidates (their keys:
//     the candidates themselves are with whoever leased them).
//   - History: every test ever executed, so nothing re-executes.
//   - Sensitivity: one value per fault-space axis, the sum of the fitness
//     of the last n tests that mutated that axis. Axis choice for the
//     next mutation is sensitivity-proportional, steering the search to
//     align with the fault space's structure.
//   - Gaussian mutation: the mutated attribute's new value is drawn from
//     a discrete Gaussian centred on the old value with σ = |Ai|/5,
//     favouring neighbours without dismissing distant values.
//   - Aging: every executed test decays the fitness of pool members;
//     tests whose fitness drops below a threshold retire and can never
//     have offspring, pushing the search to keep improving coverage
//     rather than orbiting one high-impact vicinity.
//
// Cost model. History makes generation a rejection loop: a mutation that
// lands on an executed or queued point is thrown away and another is
// drawn — expect tens of attempts per candidate once a vicinity is mined
// out (24.1 on the mysqld model, 25–35 behind the RPC coordinator). An
// attempt costs its draws (two weighted, one Gaussian) and one probe of
// the parent's memo of refused mutations, before the fault is copied:
// what one Next call cannot change (the pool's fitness vector, each
// subspace's axis weights, their totals) is built once a call, the axis
// lengths once. Only a first refusal (1.6 History checks per candidate
// on the mysqld model) copies the fault, renders the key and probes,
// all in buffers the explorer owns. Only an accepted candidate allocates
// — its fault and its key string, which then rides on the Candidate
// (Candidate.Key) through the portfolio, the shards, the novelty filter,
// the engine's lease table and precompute, and back into Report, so a
// scenario's key is built once.
package explore

import (
	"sync/atomic"

	"afex/internal/faultspace"
	"afex/internal/xrand"
)

// Candidate is a fault the explorer wants executed, with the provenance
// the algorithm needs when the result comes back.
type Candidate struct {
	Point faultspace.Point
	// MutatedAxis is the axis index whose attribute was mutated to derive
	// this candidate from its parent, or -1 for randomly generated seeds.
	MutatedAxis int
	// ParentKey is the History key of the parent test, or "" for seeds.
	ParentKey string
	// key is Point.Key(), set by the explorer that generated the
	// candidate; whoever moves Point resets it.
	key string
}

var keyFallbacks atomic.Int64

// KeyFallbacks reports how many times Candidate.Key has had to render a
// key in this process: the test hook that pins a generated candidate's
// key being built once, at acceptance.
func KeyFallbacks() int64 { return keyFallbacks.Load() }

// Key returns the candidate's scenario key, Point.Key(): carried from
// generation when an explorer in this package produced the candidate,
// rendered on each call for one built elsewhere (a test, a forwarding
// wrapper's own candidate, journal replay).
func (c Candidate) Key() string {
	if c.key != "" {
		return c.key
	}
	keyFallbacks.Add(1)
	return c.Point.Key()
}

// admitter is the History check of the generating explorers, in one
// place: a point is fresh when neither History nor the queued set holds
// its key. It renders the key into a buffer it reuses, so a rejected
// attempt costs the render and two probes and allocates nothing.
type admitter struct {
	space   *faultspace.Union
	history KeySet
	// queued holds the keys handed out and not yet reported. Random has
	// none (nil): its points enter History as they are generated.
	queued map[string]bool
	keyBuf []byte
}

// exhausted reports that History already holds as many points as the
// space has.
func (a *admitter) exhausted() bool { return int64(a.history.Len()) >= a.space.Size() }

// admit reports whether c's point is fresh, and if so keys c and books
// the key as handed out.
func (a *admitter) admit(c *Candidate) bool {
	a.keyBuf = c.Point.AppendKey(a.keyBuf[:0])
	if a.history.HasBytes(a.keyBuf) || a.queued[string(a.keyBuf)] {
		return false
	}
	c.key = string(a.keyBuf)
	if a.queued == nil {
		a.history.Add(c.key)
	} else {
		a.queued[c.key] = true
	}
	return true
}

// scan admits the first fresh point in enumeration order. Random draws
// can miss the last few unvisited points of a nearly exhausted space;
// the systematic scan makes every explorer complete (coverage
// "increases proportionally to the allocated time budget", §3 — all the
// way to 100%).
func (a *admitter) scan() (out Candidate, found bool) {
	a.space.Enumerate(func(p faultspace.Point) bool {
		out = Candidate{Point: p, MutatedAxis: -1}
		found = a.admit(&out)
		return !found
	})
	return out, found
}

// Explorer generates fault-injection tests and learns from their results.
// It is the whole method set the engine drives; every explorer in this
// package implements all of it, and the meta-explorers (Sharded,
// Portfolio) and the novelty filter rely on that instead of probing.
// The one optional capability is ArmReporter: only the portfolio family
// has arms.
// Explorers may be called from one goroutine only; the parallel session
// in package core serializes access (the explorer is cheap relative to
// test execution — §6.1).
type Explorer interface {
	// Next returns the next candidate to execute, or ok == false when the
	// explorer has exhausted the space (or cannot produce a fresh
	// candidate).
	Next() (c Candidate, ok bool)
	// Report feeds back an executed candidate. impact is the measured
	// impact IS(φ); fitness is the (possibly feedback-weighted, §7.4)
	// value the search should learn from — pass fitness == impact when no
	// result-quality feedback is in use.
	Report(c Candidate, impact, fitness float64)
	Named
	Countable
	Skipper
	BatchNexter
	BatchReporter
	StatefulExplorer
	Sensitive
}

// Named reports the explorer's algorithm name; session result sets use
// it to label themselves when built from a caller-provided explorer.
type Named interface {
	Name() string
}

// Countable reports how many tests the explorer has folded back
// (Executed) and how many distinct points it has committed to its
// history (HistorySize). The sharded and portfolio meta-explorers
// aggregate these over their children.
type Countable interface {
	Executed() int
	HistorySize() int
}

// Skipper commits a generated candidate to the explorer's history
// without learning from it — no aging step, no pool insertion, no
// sensitivity update. The portfolio uses it when an arm regenerates a
// point another arm already took, and the novelty filter when a prior
// run executed it: a zero-fitness Report would decay the pool once per
// skip and write zeros into the sensitivity windows, punishing the
// search for a collision that says nothing about the fault space.
type Skipper interface {
	Skip(c Candidate)
}

// The fitness-guided explorer's tuning, at the values the evaluation
// uses throughout.
const (
	// initialBatch is the number of random seed tests generated before
	// fitness guidance kicks in (step 1 of §3).
	initialBatch = 20
	// queueSize bounds Qpriority.
	queueSize = 20
	// sensitivityWindow is n in "sum the fitness of the previous n test
	// cases in which attribute αi was mutated".
	sensitivityWindow = 20
	// sigmaFraction scales the Gaussian σ as a fraction of |Ai|: the
	// paper uses σ = |Ai|/5.
	sigmaFraction = 0.2
	// agingFactor multiplies every pool member's fitness after each
	// executed test.
	agingFactor = 0.93
	// retireFraction: a pool member retires when its fitness decays
	// below retireFraction times the pool's mean fitness.
	retireFraction = 0.05
)

// Config parameterizes the fitness-guided explorer. Zero values select
// the full algorithm used throughout the evaluation.
type Config struct {
	// Seed makes the exploration deterministic.
	Seed int64

	// Ablation switches (all default off, i.e. full algorithm), compared
	// by experiments.Ablations and the root package's BenchmarkAblation*.

	// NoAging disables the aging mechanism.
	NoAging bool
	// NoSensitivity replaces sensitivity-proportional axis choice with a
	// uniform choice, degenerating to plain stochastic beam search.
	NoSensitivity bool
	// UniformMutation replaces the Gaussian attribute mutation with a
	// uniform draw over the axis.
	UniformMutation bool
	// Greedy always mutates the highest-fitness pool member instead of
	// sampling fitness-proportionally.
	Greedy bool
}

// executed is a pool entry: an executed test and its decaying fitness.
type executed struct {
	point   faultspace.Point
	key     string
	fitness float64
	impact  float64
}

// refusals is one pool member's memo: its single-axis mutations (axis,
// new value) that admit refused. It is exact because "taken" (History ∪
// queued) only grows: Report and Skip move a key from queued to History,
// a lease handed back never returns to the explorer, and the one shrink,
// ImportState dropping the queued keys, rebuilds the pool, so every memo
// dies with its member. Two words a slot, a tag (the generation written
// in, above axis+1) and the value: any value is exact, reset clears none.
type refusals struct {
	tab []uint64
	n   int    // entries, all of generation gen
	gen uint64 // tags carry gen+1: a zeroed slot is of no generation
}

func (r *refusals) tag(axis int) uint64 { return (r.gen+1)<<32 | uint64(axis+1) }

func (r *refusals) has(axis, v int) bool {
	return r != nil && r.n > 0 && r.tab[2*r.find(axis, v)] == r.tag(axis)
}

// find returns the slot holding (axis, v), or the free one it belongs in.
func (r *refusals) find(axis, v int) int {
	mask := len(r.tab)/2 - 1
	h := (uint64(v)<<7 ^ uint64(axis)) * 0x9e3779b97f4a7c15
	for i := int(h^h>>32) & mask; ; i = (i + 1) & mask {
		if t := r.tab[2*i]; t>>32 != r.gen+1 || t == r.tag(axis) && r.tab[2*i+1] == uint64(v) {
			return i
		}
	}
}

// add enters a pair has just reported absent, keeping the load ≤ 1/2.
func (r *refusals) add(axis, v int) {
	if 4*(r.n+1) > len(r.tab) {
		old := r.tab
		r.tab, r.n = make([]uint64, max(2*len(old), 32)), 0
		for i := 0; i < len(old); i += 2 {
			if old[i]>>32 == r.gen+1 {
				r.add(int(uint32(old[i]))-1, int(old[i+1]))
			}
		}
	}
	i := r.find(axis, v)
	r.tab[2*i], r.tab[2*i+1] = r.tag(axis), uint64(v)
	r.n++
}

// reset empties the set for reuse: a new generation, the table kept.
func (r *refusals) reset() {
	if r.n, r.gen = 0, (r.gen+1)%(1<<32-1); r.gen == 0 {
		clear(r.tab)
	}
}

// axisWindow is the per-axis ring buffer behind the sensitivity vector.
type axisWindow struct {
	vals []float64
	next int
	sum  float64
}

func newAxisWindow(n int) *axisWindow { return &axisWindow{vals: make([]float64, 0, n)} }

func (w *axisWindow) push(v float64) {
	if len(w.vals) < cap(w.vals) {
		w.vals = append(w.vals, v)
		w.sum += v
		return
	}
	w.sum += v - w.vals[w.next]
	w.vals[w.next] = v
	w.next = (w.next + 1) % len(w.vals)
}

// sensitivity is the axis's current contribution to the sensitivity
// vector: the window's running sum, floored at zero.
func (w *axisWindow) sensitivity() float64 {
	if w.sum < 0 {
		return 0 // guard against float drift
	}
	return w.sum
}

// FitnessGuided is the Algorithm 1 explorer.
type FitnessGuided struct {
	cfg Config
	admitter
	rng *xrand.Rand

	pool []*executed // Qpriority
	idle []*executed // zeroed entries that left the pool, for Report
	// refused[i] is pool[i]'s memo, nil until its first refusal (beside
	// pool: executed fills its size class); spare holds reset memos.
	refused, spare      []*refusals
	admissions, answers int // Next's History checks; memo answers instead
	// sensitivity per subspace per axis.
	sens [][]*axisWindow
	// axisLen[s][k] is |Ak| of subspace s.
	axisLen [][]int
	// seedsLeft counts remaining initial random seeds.
	seedsLeft int
	// poolCap bounds the pool: queueSize (tests vary it in-package).
	poolCap   int
	executedN int

	// What the attempts of one Next call draw from, built on first use
	// in the call: the pool's fitness and each subspace's axis weights.
	call  uint64
	poolW drawWeights
	axisW []drawWeights
	// faultBuf is an attempt's mutated fault, cloned only if accepted.
	faultBuf faultspace.Fault
}

// drawWeights is a weight vector and its xrand.WeightTotal, of one call.
type drawWeights struct {
	w     []float64
	total float64
	call  uint64
}

// NewFitnessGuided builds a fitness-guided explorer over the given space.
func NewFitnessGuided(space *faultspace.Union, cfg Config) *FitnessGuided {
	fg := &FitnessGuided{
		cfg:       cfg,
		admitter:  admitter{space: space, queued: make(map[string]bool)},
		rng:       xrand.New(cfg.Seed),
		seedsLeft: initialBatch,
		poolCap:   queueSize,
	}
	fg.sens = make([][]*axisWindow, len(space.Spaces))
	fg.axisLen = make([][]int, len(space.Spaces))
	fg.axisW = make([]drawWeights, len(space.Spaces))
	for i, s := range space.Spaces {
		fg.sens[i] = make([]*axisWindow, s.Dims())
		for k, a := range s.Axes {
			fg.sens[i][k] = newAxisWindow(sensitivityWindow)
			fg.axisLen[i] = append(fg.axisLen[i], a.Len())
		}
	}
	return fg
}

// Name implements Named.
func (fg *FitnessGuided) Name() string { return "fitness" }

// Executed reports how many tests have been reported back so far.
func (fg *FitnessGuided) Executed() int { return fg.executedN }

// HistorySize reports the number of distinct tests ever enqueued for
// execution (i.e. coverage of the fault space in points).
func (fg *FitnessGuided) HistorySize() int { return fg.history.Len() }

// Next implements Explorer.
func (fg *FitnessGuided) Next() (Candidate, bool) {
	// Generate: either a remaining initial seed, or a mutation of a pool
	// member (Algorithm 1). Mutation can fail to produce a fresh
	// candidate (vicinity exhausted); bounded retries then fall back to
	// random seeds so the search keeps making progress. If the whole
	// space is in History, give up.
	if fg.exhausted() {
		return Candidate{}, false
	}
	fg.call++ // the last call's weights are stale
	for attempt := 0; attempt < 500; attempt++ {
		c, ok, parent := Candidate{}, false, -1
		// After repeated failures to find a fresh mutation (the current
		// vicinity is mined out and every neighbour is in History), fall
		// back to random seeding so the search keeps moving — this is the
		// exploration/exploitation escape hatch that complements aging.
		fromSeed := fg.seedsLeft > 0 || len(fg.pool) == 0 || attempt >= 100
		if fromSeed {
			c, ok = fg.randomSeed()
		} else if c, parent, ok = fg.mutate(); !ok && parent >= 0 {
			fg.answers++
			continue
		} else if !ok {
			c, ok = fg.randomSeed()
		}
		if fg.admissions++; !ok || !fg.admit(&c) {
			if parent >= 0 {
				fg.refuse(parent, c)
			}
			continue
		}
		if c.MutatedAxis >= 0 {
			// Lines 10–11's clone, now that the mutation is kept.
			c.Point.Fault = c.Point.Fault.Clone()
		}
		if fromSeed && fg.seedsLeft > 0 {
			fg.seedsLeft--
		}
		return c, true
	}
	return fg.scan()
}

// refuse enters c, a refused mutation of pool member i, in i's memo.
func (fg *FitnessGuided) refuse(i int, c Candidate) {
	if n := len(fg.spare); fg.refused[i] == nil && n > 0 {
		fg.refused[i], fg.spare = fg.spare[n-1], fg.spare[:n-1]
	} else if fg.refused[i] == nil {
		fg.refused[i] = &refusals{}
	}
	fg.refused[i].add(c.MutatedAxis, c.Point.Fault[c.MutatedAxis])
}

// recycle resets the memo of a member leaving the pool for a later one.
func (fg *FitnessGuided) recycle(r *refusals) {
	if r != nil {
		r.reset()
		fg.spare = append(fg.spare, r)
	}
}

// randomSeed draws a uniform random point (step 1 of §3).
func (fg *FitnessGuided) randomSeed() (Candidate, bool) {
	if fg.space.Size() == 0 {
		return Candidate{}, false
	}
	p := fg.space.Random(fg.rng.Intn)
	return Candidate{Point: p, MutatedAxis: -1}, true
}

// mutate implements lines 1–11 of Algorithm 1, returning the candidate
// and its parent's pool index (−1 for none: a one-value axis or a hole;
// not ok with a parent: the parent's memo holds it). The candidate's
// fault is the explorer's scratch: valid until the next call.
func (fg *FitnessGuided) mutate() (c Candidate, parent int, ok bool) {
	// Lines 1–4: sample the parent fitness-proportionally (or greedily,
	// for the ablation).
	i := 0
	if fg.cfg.Greedy {
		for k, e := range fg.pool {
			if e.fitness > fg.pool[i].fitness {
				i = k
			}
		}
	} else {
		w := fg.poolWeights()
		i = fg.rng.WeightedTotal(w.w, w.total)
	}
	p := fg.pool[i]
	lens := fg.axisLen[p.point.Sub]

	// Lines 5–6: choose the attribute to mutate, sensitivity-weighted.
	var axis int
	if fg.cfg.NoSensitivity || len(lens) == 1 {
		axis = fg.rng.Intn(len(lens))
	} else {
		w := fg.axisWeights(p.point.Sub)
		axis = fg.rng.WeightedTotal(w.w, w.total)
	}

	// Lines 7–9: choose the new value. σ is proportional to |Ai|.
	n := lens[axis]
	if n <= 1 {
		return Candidate{}, -1, false
	}
	old := p.point.Fault[axis]
	var newVal int
	if fg.cfg.UniformMutation {
		newVal = fg.rng.Intn(n - 1)
		if newVal >= old {
			newVal++
		}
	} else {
		sigma := sigmaFraction * float64(n)
		newVal = fg.rng.Gaussian(n, old, sigma)
	}
	// A memoised mutation was no hole (Hole is a function of the fault),
	// so the memo can answer before the copy and the Hole test.
	if fg.refused[i].has(axis, newVal) {
		return Candidate{}, i, false
	}

	// Lines 10–11: copy and substitute — into the scratch fault, which
	// the next attempt overwrites; Next clones it if the point is fresh.
	f := append(fg.faultBuf[:0], p.point.Fault...)
	fg.faultBuf = f
	f[axis] = newVal
	if sub := fg.space.Spaces[p.point.Sub]; sub.Hole != nil && sub.Hole(f) {
		return Candidate{}, -1, false
	}
	return Candidate{Point: faultspace.Point{Sub: p.point.Sub, Fault: f}, MutatedAxis: axis, ParentKey: p.key}, i, true
}

// poolWeights returns the pool's fitness vector, built once a call.
func (fg *FitnessGuided) poolWeights() *drawWeights {
	w := &fg.poolW
	if w.call != fg.call {
		w.w = w.w[:0]
		for _, e := range fg.pool {
			w.w = append(w.w, e.fitness)
		}
		w.total, w.call = xrand.WeightTotal(w.w), fg.call
	}
	return w
}

// axisWeights returns subspace sub's axis weights, built once a call:
// sensitivity plus a small uniform floor, which keeps every axis
// selectable as parent selection keeps low-fitness tests: without it,
// one productive axis starves the others for good.
func (fg *FitnessGuided) axisWeights(sub int) *drawWeights {
	w := &fg.axisW[sub]
	if w.call == fg.call {
		return w
	}
	w.w = w.w[:0]
	total := 0.0
	for _, a := range fg.sens[sub] {
		v := a.sensitivity()
		w.w = append(w.w, v)
		total += v
	}
	if total > 0 {
		floor := 0.1 * total / float64(len(w.w))
		for k := range w.w {
			w.w[k] += floor
		}
	}
	w.total, w.call = xrand.WeightTotal(w.w), fg.call
	return w
}

// Report implements Explorer. It moves the candidate into History,
// inserts it into Qpriority (evicting inverse-fitness-proportionally when
// full), updates the mutated axis's sensitivity window, and applies one
// aging step to the pool.
func (fg *FitnessGuided) Report(c Candidate, impact, fitness float64) {
	key := c.Key()
	delete(fg.queued, key)
	fg.history.Add(key)
	fg.executedN++

	if c.MutatedAxis >= 0 && c.Point.Sub < len(fg.sens) && c.MutatedAxis < len(fg.sens[c.Point.Sub]) {
		fg.sens[c.Point.Sub][c.MutatedAxis].push(fitness)
	}

	if !fg.cfg.NoAging {
		for _, e := range fg.pool {
			e.fitness *= agingFactor
		}
		fg.retire()
	}

	var e *executed
	if n := len(fg.idle); n > 0 {
		e, fg.idle = fg.idle[n-1], fg.idle[:n-1]
	} else {
		e = new(executed)
	}
	*e = executed{point: c.Point, key: key, fitness: fitness, impact: impact}
	fg.pool, fg.refused = append(fg.pool, e), append(fg.refused, nil)
	if last := len(fg.pool) - 1; last >= fg.poolCap {
		fg.call++ // the pool changed: rebuild its weights
		weights := fg.poolWeights().w
		victim := fg.rng.InverseWeightedInto(weights, weights)
		fg.recycle(fg.refused[victim])
		*fg.pool[victim] = executed{} // it waits in idle, pinning nothing
		fg.idle = append(fg.idle, fg.pool[victim])
		fg.pool[victim], fg.refused[victim] = fg.pool[last], fg.refused[last]
		fg.pool, fg.refused = fg.pool[:last], fg.refused[:last]
	}
}

// Skip implements Skipper: the point enters History (it will never be
// generated again) but the pool, aging clock and sensitivity windows
// are untouched — the test was not executed, so there is nothing to
// learn.
func (fg *FitnessGuided) Skip(c Candidate) {
	key := c.Key()
	delete(fg.queued, key)
	fg.history.Add(key)
}

// BatchNext implements BatchNexter, one mutation at a time.
func (fg *FitnessGuided) BatchNext(n int) []Candidate { return nextEach(fg, n) }

// ReportBatch implements BatchReporter: aging and the sensitivity
// windows are per-test steps of Algorithm 1, never coalesced.
func (fg *FitnessGuided) ReportBatch(batch []Feedback) { reportEach(fg, batch) }

// retire drops pool members whose decayed fitness fell below
// retireFraction of the pool mean; they can no longer have offspring.
func (fg *FitnessGuided) retire() {
	if len(fg.pool) == 0 {
		return
	}
	mean := 0.0
	for _, e := range fg.pool {
		mean += e.fitness
	}
	mean /= float64(len(fg.pool))
	if mean <= 0 {
		return
	}
	threshold := retireFraction * mean
	kept, memos := fg.pool[:0], fg.refused[:0]
	for i, e := range fg.pool {
		if e.fitness >= threshold {
			kept, memos = append(kept, e), append(memos, fg.refused[i])
		} else {
			fg.recycle(fg.refused[i])
			*e = executed{}
			fg.idle = append(fg.idle, e)
		}
	}
	fg.pool, fg.refused = kept, memos
}

// Sensitivities returns the current normalized sensitivity vector of
// subspace sub, for the §7.3 structure analysis ("the sensitivity of
// Xfunc converges to 0.1 while Xtest and Xcall converge to 0.4").
func (fg *FitnessGuided) Sensitivities(sub int) []float64 {
	raw := make([]float64, len(fg.sens[sub]))
	for k, w := range fg.sens[sub] {
		raw[k] = w.sensitivity()
	}
	return xrand.Normalize(raw)
}

// Random is the uniform random-sampling baseline explorer. It never
// re-executes a point (sampling without replacement), matching AFEX's
// accounting of "tests executed".
type Random struct {
	admitter
	rng       *xrand.Rand
	executedN int
}

// NewRandom builds a random explorer with the given seed.
func NewRandom(space *faultspace.Union, seed int64) *Random {
	return &Random{admitter: admitter{space: space}, rng: xrand.New(seed)}
}

// Name implements Named.
func (r *Random) Name() string { return "random" }

// Next implements Explorer.
func (r *Random) Next() (Candidate, bool) {
	if r.exhausted() {
		return Candidate{}, false
	}
	for attempt := 0; attempt < 10000; attempt++ {
		c := Candidate{Point: r.space.Random(r.rng.Intn), MutatedAxis: -1}
		if r.admit(&c) {
			return c, true
		}
	}
	return r.scan()
}

// Report implements Explorer; random search learns nothing, but the
// reported point still enters History so externally sourced feedback
// (journal replay on resume) is never regenerated.
func (r *Random) Report(c Candidate, _, _ float64) {
	r.history.Add(c.Key())
	r.executedN++
}

// Skip implements Skipper.
func (r *Random) Skip(c Candidate) { r.history.Add(c.Key()) }

// BatchNext implements BatchNexter, one draw at a time.
func (r *Random) BatchNext(n int) []Candidate { return nextEach(r, n) }

// ReportBatch implements BatchReporter.
func (r *Random) ReportBatch(batch []Feedback) { reportEach(r, batch) }

// Sensitivities implements Sensitive: random search weighs no axis.
func (r *Random) Sensitivities(int) []float64 { return nil }

// Executed implements Countable.
func (r *Random) Executed() int { return r.executedN }

// HistorySize implements Countable.
func (r *Random) HistorySize() int { return r.history.Len() }

// Exhaustive enumerates the whole space in lexicographic order, the
// brute-force baseline of Gunawi et al. that §3 contrasts with. It is a
// cursor over the union in Union.Enumerate's order, holes skipped, so
// its memory is one point however large the space.
type Exhaustive struct {
	space     *faultspace.Union
	sub       int              // at's subspace; len(space.Spaces) once enumeration ends
	at        faultspace.Fault // the next point, nil before sub's first
	next      int
	executedN int
}

// NewExhaustive builds an exhaustive explorer positioned at the space's
// first valid point.
func NewExhaustive(space *faultspace.Union) *Exhaustive {
	e := &Exhaustive{space: space}
	e.advance()
	return e
}

// advance moves the cursor to the next valid point in enumeration order,
// past holes and empty subspaces (to sub's first when at is nil).
func (e *Exhaustive) advance() {
	for e.sub < len(e.space.Spaces) {
		sp := e.space.Spaces[e.sub]
		if e.at == nil && sp.Size() > 0 {
			e.at = make(faultspace.Fault, len(sp.Axes))
		} else if e.at == nil || !sp.Step(e.at) {
			e.sub, e.at = e.sub+1, nil
			continue
		}
		if sp.Hole == nil || !sp.Hole(e.at) {
			return
		}
	}
}

// Name implements Named.
func (e *Exhaustive) Name() string { return "exhaustive" }

// Next implements Explorer.
func (e *Exhaustive) Next() (Candidate, bool) {
	if e.sub >= len(e.space.Spaces) {
		return Candidate{}, false
	}
	c := CandidateAt(faultspace.Point{Sub: e.sub, Fault: e.at.Clone()})
	e.advance()
	e.next++
	return c, true
}

// CandidateAt is a seed candidate at p — no parent, no mutated axis —
// keyed here so the layers it passes through do not each render the key.
func CandidateAt(p faultspace.Point) Candidate {
	return Candidate{Point: p, MutatedAxis: -1, key: p.Key()}
}

// Report implements Explorer; exhaustive search learns nothing.
func (e *Exhaustive) Report(Candidate, float64, float64) { e.executedN++ }

// ReportBatch implements BatchReporter.
func (e *Exhaustive) ReportBatch(batch []Feedback) { e.executedN += len(batch) }

// Skip implements Skipper. Enumeration keeps no history to commit the
// point to; the skip counts as executed, as Report(c, 0, 0) does.
func (e *Exhaustive) Skip(Candidate) { e.executedN++ }

// Sensitivities implements Sensitive: enumeration weighs no axis.
func (e *Exhaustive) Sensitivities(int) []float64 { return nil }

// Executed implements Countable.
func (e *Exhaustive) Executed() int { return e.executedN }

// HistorySize implements Countable: the enumeration position is the
// number of points handed out.
func (e *Exhaustive) HistorySize() int { return e.next }
