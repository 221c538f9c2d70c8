package explore

import (
	"afex/internal/faultspace"
	"afex/internal/xrand"
)

// Genetic is the generational genetic-algorithm explorer — the approach
// the paper's authors tried first and abandoned ("In an earlier version
// of our system, we employed a genetic algorithm, but abandoned it,
// because we found it inefficient. AFEX aims to optimize for 'ridges' on
// the fault-impact hypersurface, and this makes global optimization
// algorithms difficult to apply", §3).
//
// It is provided as a baseline so that claim can be reproduced: a
// population of fault vectors evolves by fitness-proportional selection,
// single-point crossover of attribute vectors, and per-attribute uniform
// mutation. Compare it against FitnessGuided on any structured target
// (BenchmarkAblationGenetic does).
type Genetic struct {
	admitter
	rng *xrand.Rand

	// population holds the current generation's evaluated members.
	population []*executed
	// offspring queues the next generation awaiting execution.
	offspring []Candidate
	executedN int
}

// The genetic explorer's tuning.
const (
	// popSize is the generation size.
	popSize = 30
	// mutationRate is the per-attribute probability of a uniform
	// mutation after crossover.
	mutationRate = 0.1
)

// NewGenetic builds a genetic-algorithm explorer over the space.
func NewGenetic(space *faultspace.Union, seed int64) *Genetic {
	return &Genetic{
		admitter: admitter{space: space, queued: make(map[string]bool)},
		rng:      xrand.New(seed),
	}
}

// Next implements Explorer.
func (g *Genetic) Next() (Candidate, bool) {
	if g.exhausted() {
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
		if g.admit(&c) {
			return c, true
		}
	}
	return g.scan()
}

// breed produces the next generation from the current population:
// fitness-proportional parent selection, single-point crossover within
// the same subspace, then uniform per-attribute mutation. The parent
// generation is discarded (generational replacement).
func (g *Genetic) breed() {
	weights := make([]float64, len(g.population))
	for i, m := range g.population {
		weights[i] = m.fitness
	}
	total := xrand.WeightTotal(weights)
	for len(g.offspring) < popSize {
		a := g.population[g.rng.WeightedTotal(weights, total)]
		b := g.population[g.rng.WeightedTotal(weights, total)]
		child := g.crossover(a, b)
		g.mutate(child)
		g.offspring = append(g.offspring, Candidate{Point: child, MutatedAxis: -1})
	}
	g.population = g.population[:0]
}

// crossover splices two parents' attribute vectors at a random point.
// Parents from different subspaces cannot be crossed; the child is then a
// mutated copy of the fitter one.
func (g *Genetic) crossover(a, b *executed) faultspace.Point {
	if a.point.Sub != b.point.Sub {
		if b.fitness > a.fitness {
			a = b
		}
		return faultspace.Point{Sub: a.point.Sub, Fault: a.point.Fault.Clone()}
	}
	f := a.point.Fault.Clone()
	if len(f) > 1 {
		cut := 1 + g.rng.Intn(len(f)-1)
		copy(f[cut:], b.point.Fault[cut:])
	}
	return faultspace.Point{Sub: a.point.Sub, Fault: f}
}

// mutate applies uniform per-attribute mutation in place, steering clear
// of holes by resampling.
func (g *Genetic) mutate(p faultspace.Point) {
	s := g.space.Spaces[p.Sub]
	for k := range p.Fault {
		if g.rng.Float64() < mutationRate {
			p.Fault[k] = g.rng.Intn(s.Axes[k].Len())
		}
	}
	if s.Hole != nil && s.Hole(p.Fault) {
		// Replace a hole with a fresh random member rather than biasing
		// the neighbourhood.
		fresh := s.Random(g.rng.Intn)
		copy(p.Fault, fresh)
	}
}

// Report implements Explorer.
func (g *Genetic) Report(c Candidate, impact, fitness float64) {
	key := c.Key()
	delete(g.queued, key)
	g.history.Add(key)
	g.executedN++
	g.population = append(g.population, &executed{
		point:   c.Point,
		key:     key,
		fitness: fitness,
		impact:  impact,
	})
}

// Name implements Named.
func (g *Genetic) Name() string { return "genetic" }

// Skip implements Skipper: the point enters History without joining the
// population — an unexecuted point has no fitness to breed from.
func (g *Genetic) Skip(c Candidate) {
	key := c.Key()
	delete(g.queued, key)
	g.history.Add(key)
}

// BatchNext implements BatchNexter, one offspring at a time.
func (g *Genetic) BatchNext(n int) []Candidate { return nextEach(g, n) }

// ReportBatch implements BatchReporter.
func (g *Genetic) ReportBatch(batch []Feedback) { reportEach(g, batch) }

// Sensitivities implements Sensitive: the genetic search weighs no axis.
func (g *Genetic) Sensitivities(int) []float64 { return nil }

// Executed implements Countable.
func (g *Genetic) Executed() int { return g.executedN }

// HistorySize implements Countable.
func (g *Genetic) HistorySize() int { return g.history.Len() }
