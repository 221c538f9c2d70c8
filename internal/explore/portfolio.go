package explore

// The portfolio explorer: a multi-armed-bandit meta-strategy that runs
// several registered search algorithms ("arms") over the same fault
// space and adapts the lease budget to whichever arm is currently
// earning the most impact.
//
// The paper's central trade-off motivates it: fitness-guided search wins
// on structured failure landscapes, but random sampling can win early
// (before the initial batch amortizes) or on flat landscapes, and the
// genetic baseline occasionally finds ridges the others orbit. AFEX
// picks one algorithm per session up front; the portfolio instead treats
// algorithm choice as a bandit problem and re-decides on every lease.
//
// Mechanics (discounted UCB over impact- and uniqueness-weighted
// rewards):
//
//   - Each arm keeps lifetime statistics (pulls, cumulative reward —
//     what sessions report) and discounted counters (recency-weighted
//     pulls/reward — what arm selection uses; every fold decays them by
//     rewardDiscount, because the reward process is non-stationary: a
//     region an arm mined rich last hour may be exhausted now).
//   - The reward of one executed test mixes its normalized fitness
//     (impact-weighted; dissimilarity-weighted too when the session
//     enables §7.4 feedback) with the unique-cluster yield signal the
//     engine computes during redundancy clustering
//     (Feedback.NewCluster): see rewardFitnessWeight/
//     rewardClusterWeight. Unique failures are what a session is judged
//     on, so they carry most of the weight.
//   - Next picks the arm maximizing discounted mean + an exploration
//     radius sqrt(c ln t / n). In-flight leases count toward n (but not
//     the mean), so a BatchNext lease of k candidates spreads over the
//     arms by posterior instead of handing the whole batch to the
//     current leader. The fitness arm starts with a decaying optimistic
//     prior (the paper's §7 evaluation finds fitness the best fixed
//     algorithm on most targets).
//   - Arms share one deduplication set: a point executed (or leased) by
//     any arm is never handed out again; an arm that regenerates such a
//     point commits it to its own history via Skip (no aging or
//     sensitivity distortion — a collision says nothing about the fault
//     space), so every skip makes progress and the portfolio terminates
//     exactly when all arms are exhausted.
//
// The portfolio is deterministic: arm selection breaks ties by arm
// index, each arm's randomness comes from a seed derived with
// xrand.DeriveSeed, and a sequential session is bit-for-bit reproducible
// like every other strategy. It implements StatefulExplorer — per-arm
// pull counts, reward sums and nested explorer states (including exact
// RNG positions) all round-trip — so --resume continues the bandit
// exactly.
//
// In the composition order of the exploration stack the portfolio is a
// strategy like any other: strategy → Sharded → Novel, so
// sharded-portfolio runs one independent bandit per disjoint region.

import (
	"fmt"
	"math"

	"afex/internal/faultspace"
)

// portfolioArms names the registered strategies the portfolio runs, in
// arm order. Arm 0 keeps the session seed, so its fitness search is the
// one an unsharded fitness session would have run.
var portfolioArms = []string{"fitness", "random", "genetic"}

// ArmStat is one portfolio arm's observable statistics, exported through
// the engine's Snapshot and ResultSet so sessions can report how the
// bandit allocated its budget.
type ArmStat struct {
	// Name is the arm's registered strategy name.
	Name string `json:"name"`
	// Pulls is the number of executed tests credited to the arm.
	Pulls int `json:"pulls"`
	// Reward is the cumulative normalized reward over those pulls.
	Reward float64 `json:"reward"`
	// Mean is Reward/Pulls (0 before the first pull).
	Mean float64 `json:"mean"`
}

// ArmReporter is implemented by explorers that expose per-arm bandit
// statistics; the engine uses it to fill Snapshot.Arms without depending
// on a concrete explorer type. The sharded meta-explorer aggregates its
// shards' arms, so sharded-portfolio sessions report portfolio-wide
// statistics.
type ArmReporter interface {
	ArmStats() []ArmStat
}

// ArmSnapshot is one serialized portfolio arm: the lifetime and
// discounted bandit statistics plus the arm's nested explorer state
// (an import leaves an arm whose State is nil as constructed).
type ArmSnapshot struct {
	Name   string  `json:"name"`
	Pulls  int     `json:"pulls"`
	Reward float64 `json:"reward"`
	// WPulls/WReward are the discounted selection counters; they must
	// round-trip exactly for a resumed bandit to make the same choices.
	WPulls  float64 `json:"wPulls,omitempty"`
	WReward float64 `json:"wReward,omitempty"`
	State   *State  `json:"state,omitempty"`
}

// portfolioArm is one live arm.
type portfolioArm struct {
	name string
	ex   Explorer
	// pulls and reward are the lifetime bandit statistics over folded
	// results — what ArmStats and the session report.
	pulls  int
	reward float64
	// wPulls and wReward are the discounted (recency-weighted) counters
	// arm selection actually uses: every fold multiplies both by
	// rewardDiscount on every arm, so the mean tracks the arm's recent
	// yield rather than its whole history. Failure clusters deplete —
	// an arm that was rich early and is mined out now should lose the
	// budget now.
	wPulls  float64
	wReward float64
	// pending counts leased-but-not-folded candidates; it widens the
	// arm's confidence interval so batch leases spread across arms.
	pending int
	done    bool
}

// Portfolio is the adaptive bandit meta-explorer.
type Portfolio struct {
	space *faultspace.Union
	arms  []*portfolioArm
	// inflight routes Report back to the arm that leased the candidate:
	// point key → arm index.
	inflight map[string]int
	// executed logs every point key reported back (or skipped) by any
	// arm, in report order. Together with inflight it is the shared
	// deduplication set (see taken); alone it is what ExportState hands
	// out.
	executed KeySet
	// maxFitness is the running reward normalizer (the largest fitness
	// reported so far).
	maxFitness float64
	// totalPulls is the sum of the arms' pulls.
	totalPulls int
}

// NewPortfolio builds a portfolio explorer over the space. cfg tunes the
// fitness arm as usual; the random and genetic arms take seeds derived
// from cfg.Seed so the three search streams are uncorrelated.
func NewPortfolio(space *faultspace.Union, cfg Config) *Portfolio {
	p := &Portfolio{
		space:    space,
		inflight: make(map[string]int),
	}
	for i, name := range portfolioArms {
		sub := cfg
		sub.Seed = armSeed(cfg.Seed, i)
		ex, err := New(name, space, sub)
		if err != nil {
			// Every portfolio arm is a built-in registered strategy.
			panic("explore: " + err.Error())
		}
		arm := &portfolioArm{name: name, ex: ex}
		if name == "fitness" {
			// Optimistic initialization of the discounted counters: the
			// paper-informed fitness prior, decaying away with the same
			// discount as real observations (fully washed out after a
			// few hundred folds).
			arm.wPulls = fitnessPriorPulls
			arm.wReward = fitnessPriorPulls * fitnessPriorMean
		}
		p.arms = append(p.arms, arm)
	}
	return p
}

// Name implements Named.
func (p *Portfolio) Name() string { return "portfolio" }

// pickArm returns the index of the UCB1-maximal live arm, or -1 when
// every arm is exhausted. Ties break toward the lowest index, keeping
// the choice deterministic.
func (p *Portfolio) pickArm() int {
	// t counts every lease decision made so far, folded or in flight.
	t := p.totalPulls + 1
	for _, a := range p.arms {
		t += a.pending
	}
	best, bestScore := -1, math.Inf(-1)
	for i, a := range p.arms {
		if a.done {
			continue
		}
		n := a.wPulls + float64(a.pending)
		if n <= 0 {
			// Unpulled arms have unbounded confidence: play each once
			// before any comparison, in arm order.
			return i
		}
		mean := 0.0
		if a.wPulls > 0 {
			mean = a.wReward / a.wPulls
		}
		score := mean + math.Sqrt(ucbExploration*math.Log(float64(t))/n)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// taken reports whether any arm has leased or executed the point.
func (p *Portfolio) taken(key string) bool {
	if _, leased := p.inflight[key]; leased {
		return true
	}
	return p.executed.Has(key)
}

// nextFromArm draws the arm's next candidate that no other arm has
// already taken. Points in the shared deduplication set are committed
// to the arm's own history by Skip (no aging or sensitivity
// distortion), so every skip is permanent progress and the loop
// terminates — either with a fresh candidate or with the arm exhausted.
func (p *Portfolio) nextFromArm(a *portfolioArm) (Candidate, bool) {
	for {
		c, ok := a.ex.Next()
		if !ok {
			return Candidate{}, false
		}
		if !p.taken(c.Key()) {
			return c, true
		}
		a.ex.Skip(c)
	}
}

// Next implements Explorer: one candidate from the bandit-chosen arm.
func (p *Portfolio) Next() (Candidate, bool) {
	for {
		idx := p.pickArm()
		if idx < 0 {
			return Candidate{}, false
		}
		a := p.arms[idx]
		c, ok := p.nextFromArm(a)
		if !ok {
			a.done = true
			continue
		}
		key := c.Key()
		p.inflight[key] = idx
		a.pending++
		return c, true
	}
}

// BatchNext implements BatchNexter: n bandit decisions, one per
// candidate. Leased candidates count toward their arm's confidence
// interval immediately, so the batch allocates across arms by posterior
// instead of giving the whole lease to the current leader.
func (p *Portfolio) BatchNext(n int) []Candidate { return nextEach(p, n) }

// Reward mix: an arm's reward per pull is part normalized fitness
// (impact-weighted, and dissimilarity-weighted when the session enables
// §7.4 feedback), part unique-cluster yield (Feedback.NewCluster, set by
// the engine's clustering authority). The cluster term carries most of
// the weight because unique failures are what a session is ultimately
// judged on; the fitness term breaks ties between arms that cluster at
// the same rate.
const (
	rewardFitnessWeight = 0.3
	rewardClusterWeight = 0.7
)

// ucbExploration scales the confidence radius sqrt(c ln t / n). The
// canonical UCB1 constant (2) assumes reward gaps of order 1; here the
// arms' per-pull reward means differ by a few hundredths (their
// new-cluster rates are 0.1–0.2 and close together), so a radius that
// small is what lets the leader emerge within a few-hundred-test
// session at all — at 2 the allocation stays uniform for thousands of
// pulls. Early exploration is still generous: with a handful of pulls
// the radius is ~0.2, well above any mean gap.
const ucbExploration = 0.05

// rewardDiscount is the per-fold decay of the discounted reward/pull
// counters (discounted UCB, Kocsis & Szepesvári 2006): every fold
// multiplies every arm's windowed statistics by this factor, giving an
// effective observation window of ~1/(1-γ) ≈ 100 recent pulls. The
// fault-exploration reward process is non-stationary by construction —
// new clusters deplete as a region is mined out — so recent yield
// predicts the next lease far better than session-lifetime averages.
const rewardDiscount = 0.99

// Paper-informed prior: §7 finds fitness-guided search the best fixed
// algorithm on most targets, so the fitness arm's discounted counters
// start with these many virtual pulls at this optimistic mean reward.
// At short horizons the bandit therefore defaults to fitness until
// another arm demonstrably earns more; the virtual observations decay
// with the same discount as real ones, so the prior is fully washed out
// after a few hundred folds. The prior is selection-time only —
// exported lifetime pull counts and reward sums are real.
const (
	fitnessPriorPulls = 12
	fitnessPriorMean  = 0.85
)

// report is the single feedback path: route to the leasing arm, update
// the bandit statistics, teach the arm. Feedback for a candidate the
// portfolio never leased (a persisted journal replayed on resume) only
// enters the shared executed log — no arm is credited, and no arm will
// regenerate the point.
func (p *Portfolio) report(c Candidate, impact, fitness float64, newCluster bool) {
	key := c.Key()
	idx, leased := p.inflight[key]
	p.executed.Add(key)
	if !leased {
		return
	}
	delete(p.inflight, key)
	a := p.arms[idx]
	if a.pending > 0 {
		a.pending--
	}
	// One discount step for every arm, then the fresh observation.
	for _, b := range p.arms {
		b.wPulls *= rewardDiscount
		b.wReward *= rewardDiscount
	}
	a.pulls++
	a.wPulls++
	p.totalPulls++
	if fitness > p.maxFitness {
		p.maxFitness = fitness
	}
	r := 0.0
	if p.maxFitness > 0 {
		r += rewardFitnessWeight * fitness / p.maxFitness
	}
	if newCluster {
		r += rewardClusterWeight
	}
	a.reward += r
	a.wReward += r
	a.ex.Report(c, impact, fitness)
}

// Report implements Explorer. Callers that know whether the test opened
// a new redundancy cluster should prefer ReportBatch, which carries that
// signal; a plain Report implies it did not.
func (p *Portfolio) Report(c Candidate, impact, fitness float64) {
	p.report(c, impact, fitness, false)
}

// Skip implements Skipper: the candidate was never executed (an outer
// novelty filter vetoed it), so the lease is released and the point is
// committed to the owning arm's history — with no pull credit, no
// discount step and no reward, the collision says nothing about the
// arms' relative merit.
func (p *Portfolio) Skip(c Candidate) {
	key := c.Key()
	p.executed.Add(key)
	idx, leased := p.inflight[key]
	if !leased {
		return
	}
	delete(p.inflight, key)
	a := p.arms[idx]
	if a.pending > 0 {
		a.pending--
	}
	a.ex.Skip(c)
}

// ReportBatch implements BatchReporter: per-candidate routing with the
// full Feedback record, including the engine-computed unique-cluster
// signal the bandit's reward depends on.
func (p *Portfolio) ReportBatch(batch []Feedback) {
	for _, fb := range batch {
		p.report(fb.C, fb.Impact, fb.Fitness, fb.NewCluster)
	}
}

// ArmStats implements ArmReporter.
func (p *Portfolio) ArmStats() []ArmStat {
	out := make([]ArmStat, len(p.arms))
	for i, a := range p.arms {
		out[i] = ArmStat{Name: a.name, Pulls: a.pulls, Reward: a.reward}
		if a.pulls > 0 {
			out[i].Mean = a.reward / float64(a.pulls)
		}
	}
	return out
}

// Executed implements Countable: tests folded back across all arms.
func (p *Portfolio) Executed() int { return p.totalPulls }

// HistorySize implements Countable: distinct points leased or executed.
func (p *Portfolio) HistorySize() int { return p.executed.Len() + len(p.inflight) }

// Sensitivities implements Sensitive with the fitness arm's (arm 0)
// §7.3 sensitivity vector, so portfolio sessions still report axis
// structure.
func (p *Portfolio) Sensitivities(sub int) []float64 { return p.arms[0].ex.Sensitivities(sub) }

// ExportState implements StatefulExplorer: per-arm pull counts, reward
// sums and nested explorer states (exact RNG positions included), plus
// the shared executed log (a view, in report order) and the reward
// normalizer. In-flight leases are not in it — a crash loses their
// outcomes, so the resumed bandit must be able to regenerate them.
func (p *Portfolio) ExportState() *State {
	st := &State{Algorithm: p.Name(), MaxFitness: p.maxFitness}
	st.Arms = make([]ArmSnapshot, len(p.arms))
	for i, a := range p.arms {
		st.Arms[i] = ArmSnapshot{
			Name: a.name, Pulls: a.pulls, Reward: a.reward,
			WPulls: a.wPulls, WReward: a.wReward, State: a.ex.ExportState(),
		}
	}
	st.Seen = p.executed.Keys()
	return st
}

// ImportState implements StatefulExplorer. The explorer must have been
// built over the same space with the same arm roster.
func (p *Portfolio) ImportState(st *State) error {
	if st == nil || st.Algorithm != p.Name() {
		return fmt.Errorf("explore: state is %q, explorer is %q", stateAlg(st), p.Name())
	}
	if len(st.Arms) != len(p.arms) {
		return fmt.Errorf("explore: state has %d arms, portfolio has %d", len(st.Arms), len(p.arms))
	}
	for i, a := range p.arms {
		if st.Arms[i].Name != a.name {
			return fmt.Errorf("explore: state arm %d is %q, portfolio arm is %q", i, st.Arms[i].Name, a.name)
		}
	}
	total := 0
	for i, a := range p.arms {
		snap := &st.Arms[i]
		if snap.State != nil {
			if err := a.ex.ImportState(snap.State); err != nil {
				return fmt.Errorf("arm %q: %w", a.name, err)
			}
		}
		a.pulls = snap.Pulls
		a.reward = snap.Reward
		a.wPulls = snap.WPulls
		a.wReward = snap.WReward
		a.pending = 0
		a.done = false
		total += snap.Pulls
	}
	p.totalPulls = total
	p.maxFitness = st.MaxFitness
	p.executed = *st.Seen.Set()
	p.inflight = make(map[string]int)
	return nil
}
