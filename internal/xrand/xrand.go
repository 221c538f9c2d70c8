// Package xrand provides the deterministic random primitives used by the
// AFEX exploration algorithm: weighted (fitness-proportional) sampling, a
// discrete Gaussian distribution over attribute indices, permutations, an
// exportable stream position, and seeds derived for independent streams.
//
// Everything in AFEX that involves chance flows through a *Rand so that a
// whole exploration session is reproducible from a single seed. That
// matters for the paper's experiments (comparing fitness-guided vs random
// search on the same fault space must not be confounded by shared RNG
// state) and for the generated regression tests, which must replay the
// exact faults that were found.
//
// Its distributions are math/rand's value for value, drawn from the stock
// source directly (the ziggurat tables are Go's math/rand/normal.go).
package xrand

import (
	"math"
	"math/rand"
)

// Rand is a deterministic random source with the sampling distributions
// Algorithm 1 needs. A zero Rand is not usable; construct one with New.
//
// It holds the stock math/rand source and counts the raw draws it takes,
// so the full generator state is just ⟨seed, draws⟩ (State/Restore) and
// restoring replays that many draws from a fresh source. Each
// distribution uses those draws as math/rand.Rand does, so streams are
// bit-for-bit those of rand.New(rand.NewSource(seed)).
type Rand struct {
	src   rand.Source64 // rand.NewSource(seed)
	seed  int64
	draws uint64
}

// State is a Rand's exact position in its stream, serializable as two
// integers. Persistent exploration sessions snapshot it so a resumed
// search draws the same values an uninterrupted one would have.
type State struct {
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// New returns a Rand seeded with seed. Equal seeds yield equal streams.
func New(seed int64) *Rand {
	return &Rand{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// State returns the Rand's current stream position.
func (r *Rand) State() State { return State{Seed: r.seed, Draws: r.draws} }

// Restore returns a Rand positioned exactly at st: the same future values
// as the Rand that exported it. The replay steps the stock source a few
// nanoseconds a draw — cheap next to a single fault-injection test even
// for millions.
func Restore(st State) *Rand {
	r := New(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		r.src.Uint64()
	}
	r.draws = st.Draws
	return r
}

// DeriveSeed derives the seed of sub-stream id of a base seed, without
// consuming any randomness. It is a pure function — equal (seed, id)
// pairs always yield the same derived seed — built from two rounds of
// splitmix64 finalization, so the derived seeds are uncorrelated both
// across ids for one base seed and across base seeds for one id.
//
// The sharded explorer seeds shard i with DeriveSeed(base, i) and the
// portfolio explorer seeds its arms from a disjoint id range.
// (Compatibility note: before the splitmix derivation, shard streams
// were seeded additively as base + i*1_000_003, so two sessions whose
// base seeds differed by that stride shared shard streams. Sequential
// sharded runs remain deterministic — the derivation is still a pure
// function of (seed, id) — but shard streams differ from those of the
// additive scheme.)
func DeriveSeed(seed int64, id int64) int64 {
	// Finalize the base seed, then advance the splitmix state by id
	// golden-ratio steps (plus a constant, so id 0 does not return a
	// plain finalization of the seed) and finalize again. The two
	// finalizations make the function asymmetric in (seed, id).
	z := mix64(uint64(seed) + 0x9e3779b97f4a7c15)
	z += uint64(id)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	return int64(mix64(z))
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a uniform non-negative int64: one raw draw.
func (r *Rand) Int63() int64 {
	r.draws++
	return r.src.Int63()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, and draws
// as math/rand's does: Int31n (a draw's top 31 bits) up to 1<<31-1, else
// Int63n; a mask for a power of two, else rejection.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	shift, bits := 32, 31
	if n > 1<<31-1 {
		shift, bits = 0, 63
	}
	m := uint64(n)
	v := uint64(r.Int63()) >> shift
	if m&(m-1) == 0 {
		return int(v & (m - 1))
	}
	for limit := 1<<bits - 1 - (1<<bits)%m; v > limit; {
		v = uint64(r.Int63()) >> shift
	}
	return int(v % m)
}

// Float64 returns a uniform float64 in [0, 1), resampling the rare draw
// that rounds up to 1 as math/rand does.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	m := make([]int, n)
	for i := range m {
		j := r.Intn(i + 1)
		m[i], m[j] = m[j], i
	}
	return m
}

// Weighted samples an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights are treated as zero. If the
// total weight is zero (or the slice is empty after clamping), it falls
// back to a uniform choice; this mirrors the behaviour AFEX needs when all
// fitness values are zero early in a session. It panics on an empty slice.
func (r *Rand) Weighted(weights []float64) int {
	return r.WeightedTotal(weights, WeightTotal(weights))
}

// WeightTotal is the clamped total Weighted draws against: the sum, in
// order, of the positive weights.
func WeightTotal(weights []float64) float64 {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	return total
}

// WeightedTotal is Weighted with WeightTotal(weights) computed by the
// caller: the form for one that draws from one vector more than once.
func (r *Rand) WeightedTotal(weights []float64, total float64) int {
	if len(weights) == 0 {
		panic("xrand: Weighted on empty slice")
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// InverseWeighted samples an index with probability inversely proportional
// to weights[i]: low-weight entries are favoured. AFEX uses this to pick
// the victim dropped from the bounded priority queue — tests with low
// fitness have a higher probability of being dropped (§3).
//
// Each weight w is mapped to 1/(epsilon+max(w,0)); epsilon keeps zero
// weights finite and guarantees every entry stays droppable.
func (r *Rand) InverseWeighted(weights []float64) int {
	return r.InverseWeightedInto(make([]float64, len(weights)), weights)
}

// InverseWeightedInto is InverseWeighted with the inverted weights
// written to inv, which must be as long as weights and may be weights
// itself: the form for a caller that samples per test and owns a buffer.
func (r *Rand) InverseWeightedInto(inv, weights []float64) int {
	if len(weights) == 0 {
		panic("xrand: InverseWeighted on empty slice")
	}
	const epsilon = 1e-9
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		inv[i] = 1 / (epsilon + w)
	}
	return r.Weighted(inv)
}

// Gaussian samples an index in [0, n) from a discrete approximation of a
// Gaussian centred at mean with standard deviation sigma, excluding the
// mean itself when n > 1 (Algorithm 1 mutates an attribute, so returning
// the old value would waste an iteration). Probability mass outside the
// valid range is redistributed by rejection.
//
// This is the mutation distribution of §3: it favours the closest
// neighbours of the current value "without completely dismissing points
// that are further away". The paper uses sigma = |Ai|/5.
func (r *Rand) Gaussian(n int, mean int, sigma float64) int {
	if n <= 0 {
		panic("xrand: Gaussian with n <= 0")
	}
	if n == 1 {
		return 0
	}
	if sigma <= 0 {
		sigma = 1
	}
	for tries := 0; ; tries++ {
		v := int(math.Round(r.normFloat64()*sigma + float64(mean)))
		if v >= 0 && v < n && v != mean {
			return v
		}
		if tries >= 64 {
			// Pathological sigma/mean combinations (e.g. mean far outside
			// the range) can make rejection slow; fall back to a uniform
			// draw over the valid, non-mean values.
			v := r.Intn(n - 1)
			if v >= mean && mean >= 0 && mean < n {
				v++
			}
			return v
		}
	}
}

// Normalize scales weights so they sum to 1, writing into a fresh slice.
// Negative entries are clamped to zero first. If everything is zero the
// result is uniform. This implements the normalize() step on line 5 of
// Algorithm 1 (sensitivity → attribute selection probabilities).
func Normalize(weights []float64) []float64 {
	out := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
			out[i] = w
			total += w
		}
	}
	if total <= 0 || math.IsInf(total, 1) {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples. The impact-precision metric of §5 is 1/Variance.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean, v := Mean(xs), 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return v / float64(len(xs))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
