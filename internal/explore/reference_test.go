package explore

// The explorers as they generated candidates before generation stopped
// allocating per attempt, kept as the oracle the scratch-buffer code is
// held to draw for draw — as internal/prog/reference_test.go keeps the
// tree-walking interpreter. refFitness's Next, randomSeed, mutate,
// Report, Skip and retire and refGenetic's Next and breed are those
// bodies verbatim (receiver type aside): a fresh slice per weighted draw,
// a weight total summed per draw, a cloned fault and a rendered key
// string per attempt, the History check written out in each loop.
// Everything else — state export and import, crossover and mutation,
// the windows — is the live code's, reached through the
// embedded explorer, so both sides of a comparison share one definition
// of "state".

import (
	"fmt"
	"reflect"
	"testing"

	"afex/internal/faultspace"
	"afex/internal/targets"
	"afex/internal/trace"
)

type refFitness struct {
	*FitnessGuided
	pending []Candidate // Qpending: never filled, then as now
}

func newRefFitness(space *faultspace.Union, cfg Config) *refFitness {
	return &refFitness{FitnessGuided: NewFitnessGuided(space, cfg)}
}

func (fg *refFitness) Next() (Candidate, bool) {
	if len(fg.pending) > 0 {
		c := fg.pending[0]
		fg.pending = fg.pending[1:]
		return c, true
	}
	// Generate: either a remaining initial seed, or a mutation of a pool
	// member (Algorithm 1). Mutation can fail to produce a fresh
	// candidate (vicinity exhausted); bounded retries then fall back to
	// random seeds so the search keeps making progress. If the whole
	// space is in History, give up.
	if fg.space.Size() > 0 && int64(fg.history.Len()) >= fg.space.Size() {
		return Candidate{}, false
	}
	for attempt := 0; attempt < 500; attempt++ {
		var c Candidate
		var ok bool
		// After repeated failures to find a fresh mutation (the current
		// vicinity is mined out and every neighbour is in History), fall
		// back to random seeding so the search keeps moving — this is the
		// exploration/exploitation escape hatch that complements aging.
		fromSeed := fg.seedsLeft > 0 || len(fg.pool) == 0 || attempt >= 100
		if fromSeed {
			c, ok = fg.randomSeed()
		} else {
			c, ok = fg.mutate()
			if !ok {
				c, ok = fg.randomSeed()
			}
		}
		if !ok {
			continue
		}
		key := c.Point.Key()
		if fg.history.Has(key) || fg.queued[key] {
			continue
		}
		if fromSeed && fg.seedsLeft > 0 {
			fg.seedsLeft--
		}
		fg.queued[key] = true
		return c, true
	}
	// Random retries can miss the last few unvisited points of a nearly
	// exhausted space; fall back to a systematic scan so the explorer is
	// complete (its coverage "increases proportionally to the allocated
	// time budget", §3 — all the way to 100%).
	var out Candidate
	found := false
	fg.space.Enumerate(func(p faultspace.Point) bool {
		key := p.Key()
		if fg.history.Has(key) || fg.queued[key] {
			return true
		}
		fg.queued[key] = true
		out = Candidate{Point: p, MutatedAxis: -1}
		found = true
		return false
	})
	return out, found
}

// randomSeed draws a uniform random point (step 1 of §3).
func (fg *refFitness) randomSeed() (Candidate, bool) {
	if fg.space.Size() == 0 {
		return Candidate{}, false
	}
	p := fg.space.Random(fg.rng.Intn)
	return Candidate{Point: p, MutatedAxis: -1}, true
}

// mutate implements lines 1–11 of Algorithm 1.
func (fg *refFitness) mutate() (Candidate, bool) {
	if len(fg.pool) == 0 {
		return Candidate{}, false
	}
	// Lines 1–4: sample the parent fitness-proportionally (or greedily,
	// for the ablation).
	var parent *executed
	if fg.cfg.Greedy {
		parent = fg.pool[0]
		for _, e := range fg.pool[1:] {
			if e.fitness > parent.fitness {
				parent = e
			}
		}
	} else {
		weights := make([]float64, len(fg.pool))
		for i, e := range fg.pool {
			weights[i] = e.fitness
		}
		parent = fg.pool[fg.rng.Weighted(weights)]
	}
	sub := fg.space.Spaces[parent.point.Sub]

	// Lines 5–6: choose the attribute to mutate, sensitivity-weighted.
	// A small uniform floor keeps every axis's probability non-zero, the
	// same way parent selection keeps low-fitness tests selectable:
	// without it, one productive axis starves the others and the search
	// never discovers that a neighbouring axis has become rewarding.
	var axis int
	if fg.cfg.NoSensitivity || sub.Dims() == 1 {
		axis = fg.rng.Intn(sub.Dims())
	} else {
		weights := make([]float64, sub.Dims())
		total := 0.0
		for k, w := range fg.sens[parent.point.Sub] {
			weights[k] = w.sensitivity()
			total += weights[k]
		}
		if total > 0 {
			floor := 0.1 * total / float64(len(weights))
			for k := range weights {
				weights[k] += floor
			}
		}
		axis = fg.rng.Weighted(weights)
	}

	// Lines 7–9: choose the new value. σ is proportional to |Ai|.
	n := sub.Axes[axis].Len()
	if n <= 1 {
		return Candidate{}, false
	}
	old := parent.point.Fault[axis]
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

	// Lines 10–11: clone and substitute.
	f := parent.point.Fault.Clone()
	f[axis] = newVal
	p := faultspace.Point{Sub: parent.point.Sub, Fault: f}
	if sub.Hole != nil && sub.Hole(f) {
		return Candidate{}, false
	}
	return Candidate{Point: p, MutatedAxis: axis, ParentKey: parent.key}, true
}

func (fg *refFitness) Report(c Candidate, impact, fitness float64) {
	key := c.Point.Key()
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

	e := &executed{point: c.Point, key: key, fitness: fitness, impact: impact}
	fg.pool = append(fg.pool, e)
	if len(fg.pool) > fg.poolCap {
		weights := make([]float64, len(fg.pool))
		for i, m := range fg.pool {
			weights[i] = m.fitness
		}
		victim := fg.rng.InverseWeighted(weights)
		fg.pool[victim] = fg.pool[len(fg.pool)-1]
		fg.pool = fg.pool[:len(fg.pool)-1]
	}
}

func (fg *refFitness) Skip(c Candidate) {
	key := c.Point.Key()
	delete(fg.queued, key)
	fg.history.Add(key)
}

func (fg *refFitness) retire() {
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
	kept := fg.pool[:0]
	for _, e := range fg.pool {
		if e.fitness >= threshold {
			kept = append(kept, e)
		}
	}
	fg.pool = kept
}

type refGenetic struct{ *Genetic }

func (g *refGenetic) Next() (Candidate, bool) {
	if g.space.Size() > 0 && int64(g.history.Len()) >= g.space.Size() {
		return Candidate{}, false
	}
	for attempt := 0; attempt < 500; attempt++ {
		var c Candidate
		if len(g.offspring) > 0 {
			c = g.offspring[0]
			g.offspring = g.offspring[1:]
		} else if len(g.population) >= popSize {
			g.breed()
			continue
		} else {
			// Fill the initial population (or top up after dedup losses)
			// with random members.
			c = Candidate{Point: g.space.Random(g.rng.Intn), MutatedAxis: -1}
		}
		key := c.Point.Key()
		if g.history.Has(key) || g.queued[key] {
			continue
		}
		g.queued[key] = true
		return c, true
	}
	// Deduplicate-resistant fallback: systematic scan.
	var out Candidate
	found := false
	g.space.Enumerate(func(p faultspace.Point) bool {
		key := p.Key()
		if g.history.Has(key) || g.queued[key] {
			return true
		}
		g.queued[key] = true
		out = Candidate{Point: p, MutatedAxis: -1}
		found = true
		return false
	})
	return out, found
}

func (g *refGenetic) breed() {
	weights := make([]float64, len(g.population))
	for i, m := range g.population {
		weights[i] = m.fitness
	}
	for len(g.offspring) < popSize {
		a := g.population[g.rng.Weighted(weights)]
		b := g.population[g.rng.Weighted(weights)]
		child := g.crossover(a, b)
		g.mutate(child)
		g.offspring = append(g.offspring, Candidate{Point: child, MutatedAxis: -1})
	}
	g.population = g.population[:0]
}

// ridgeImpact gives the search a structured, deterministic landscape:
// a few rewarding rows along the first axis, graded along the last, so
// pools fill, age, retire and evict instead of sitting at zero.
func ridgeImpact(p faultspace.Point) float64 {
	f := p.Fault
	v := float64((f[len(f)-1]*7+p.Sub)%5) / 4
	if f[0]%4 == 1 {
		v += 3
	}
	return v
}

// lockstep drives got and want through steps Next/Report rounds with
// the same feedback and fails at the first step where the candidates
// differ; afterwards the exported states (pool, windows, History order,
// seeds left, and the RNG's draw count) must be equal.
func lockstep(t *testing.T, got, want Explorer, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		g, gok := got.Next()
		w, wok := want.Next()
		if gok != wok {
			t.Fatalf("step %d: exhausted %v, reference %v", i, !gok, !wok)
		}
		if !gok {
			break
		}
		if g.Point.Sub != w.Point.Sub || !g.Point.Fault.Equal(w.Point.Fault) ||
			g.MutatedAxis != w.MutatedAxis || g.ParentKey != w.ParentKey {
			t.Fatalf("step %d: candidate %+v, reference %+v", i, g, w)
		}
		if g.Key() != g.Point.Key() {
			t.Fatalf("step %d: carried key %q, point key %q", i, g.Key(), g.Point.Key())
		}
		v := ridgeImpact(g.Point)
		got.Report(g, v, v/2+0.25)
		want.Report(w, v, v/2+0.25)
	}
	if g, w := got.ExportState(), want.ExportState(); !reflect.DeepEqual(g, w) {
		t.Fatalf("exported states differ after %d steps: rng %+v, reference %+v", steps, g.Searches[0].Rng, w.Searches[0].Rng)
	}
}

// ablations are the full algorithm and each design-choice switch.
var ablations = map[string]Config{
	"full":            {},
	"Greedy":          {Greedy: true},
	"NoSensitivity":   {NoSensitivity: true},
	"UniformMutation": {UniformMutation: true},
	"NoAging":         {NoAging: true},
}

// fitnessLockstep runs the fitness explorer against its reference over
// space for steps rounds, re-importing both from the live explorer's
// own exported state halfway (a resume mid-run).
func fitnessLockstep(t *testing.T, space func() *faultspace.Union, cfg Config, steps int) {
	t.Helper()
	got, want := NewFitnessGuided(space(), cfg), newRefFitness(space(), cfg)
	lockstep(t, got, want, steps/2)
	st := got.ExportState()
	got, want = NewFitnessGuided(space(), cfg), newRefFitness(space(), cfg)
	if err := got.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if err := want.ImportState(st); err != nil {
		t.Fatal(err)
	}
	lockstep(t, got, want, steps-steps/2)
}

func TestFitnessMatchesReferenceOnTargets(t *testing.T) {
	steps := 5000
	if raceEnabled {
		steps = 1000 // same code paths, a fifth of the instrumented work
	}
	for _, name := range targets.Names() {
		prog, err := targets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profile := trace.Profile(prog)
		space := func() *faultspace.Union {
			return profile.Describe(trace.Shape{Funcs: 6, CallLo: 0, CallHi: 8, ErrnoAxis: true}).Build()
		}
		for seed := int64(1); seed <= 3; seed++ {
			for sw, cfg := range ablations {
				cfg.Seed = seed
				t.Run(fmt.Sprintf("%s/seed%d/%s", name, seed, sw), func(t *testing.T) {
					fitnessLockstep(t, space, cfg, steps)
				})
			}
		}
	}
}

// holeySpace has two subspaces of different shape, one with a hole
// band a mutation can land in and one with a single-valued axis no
// mutation can move along.
func holeySpace() *faultspace.Union {
	a := faultspace.New("a", faultspace.IntAxis("x", 0, 29), faultspace.IntAxis("y", 0, 29))
	a.Hole = func(f faultspace.Fault) bool { return f[0]%5 == 3 || f[0] == f[1] }
	b := faultspace.New("b",
		faultspace.IntAxis("t", 0, 11),
		faultspace.SetAxis("function", "read"),
		faultspace.IntAxis("call", 0, 19))
	return faultspace.NewUnion(a, b)
}

func TestFitnessMatchesReferenceOnHoleySpace(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for sw, cfg := range ablations {
			cfg.Seed = seed
			t.Run(fmt.Sprintf("seed%d/%s", seed, sw), func(t *testing.T) {
				// 900 - 348 holes + 240 points: 700 steps leave the last
				// tenth to the 500-attempt loop and the systematic scan.
				fitnessLockstep(t, holeySpace, cfg, 700)
			})
		}
	}
}

// TestFitnessMatchesReferenceToExhaustion runs a hole-free space to its
// last point, so the History-full early return, the random-seed escape
// past attempt 100 and the Enumerate fallback all decide candidates.
func TestFitnessMatchesReferenceToExhaustion(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for sw, cfg := range ablations {
			cfg.Seed = seed
			t.Run(fmt.Sprintf("seed%d/%s", seed, sw), func(t *testing.T) {
				fitnessLockstep(t, stateSpace, cfg, 2*int(stateSpace().Size()))
			})
		}
	}
}

func TestGeneticMatchesReference(t *testing.T) {
	for _, space := range []func() *faultspace.Union{stateSpace, holeySpace} {
		for seed := int64(1); seed <= 3; seed++ {
			got, want := NewGenetic(space(), seed), &refGenetic{NewGenetic(space(), seed)}
			lockstep(t, got, want, 150)
			st := got.ExportState()
			got, want = NewGenetic(space(), seed), &refGenetic{NewGenetic(space(), seed)}
			if err := got.ImportState(st); err != nil {
				t.Fatal(err)
			}
			if err := want.ImportState(st); err != nil {
				t.Fatal(err)
			}
			lockstep(t, got, want, 2*int(space().Size()))
		}
	}
}
