package xrand

import (
	"math"
	mrand "math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestWeightedRespectsWeights(t *testing.T) {
	r := New(1)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Weighted([]float64{1, 2, 7})]++
	}
	// Expected proportions 10%, 20%, 70% (±3 points).
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / 30000
		if math.Abs(got-want) > 0.03 {
			t.Errorf("index %d: got proportion %.3f, want ≈%.2f", i, got, want)
		}
	}
}

func TestWeightedZeroTotalFallsBackToUniform(t *testing.T) {
	r := New(2)
	counts := [4]int{}
	for i := 0; i < 20000; i++ {
		counts[r.Weighted([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		got := float64(c) / 20000
		if math.Abs(got-0.25) > 0.03 {
			t.Errorf("index %d: got %.3f, want ≈0.25", i, got)
		}
	}
}

func TestWeightedIgnoresNegative(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		if got := r.Weighted([]float64{-5, 0, 1}); got != 2 {
			t.Fatalf("Weighted chose index %d with zero/negative weight", got)
		}
	}
}

func TestWeightedPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty weights")
		}
	}()
	New(1).Weighted(nil)
}

func TestInverseWeightedFavoursLowWeights(t *testing.T) {
	r := New(4)
	counts := [2]int{}
	for i := 0; i < 20000; i++ {
		counts[r.InverseWeighted([]float64{1, 100})]++
	}
	if counts[0] <= counts[1] {
		t.Errorf("low weight picked %d times, high weight %d times; want low ≫ high", counts[0], counts[1])
	}
}

func TestGaussianBoundsAndMeanExclusion(t *testing.T) {
	r := New(5)
	if err := quick.Check(func(seed int64, nRaw, meanRaw uint8) bool {
		n := int(nRaw)%50 + 2 // 2..51
		mean := int(meanRaw) % n
		v := r.Gaussian(n, mean, float64(n)/5)
		return v >= 0 && v < n && v != mean
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGaussianSingleValue(t *testing.T) {
	if got := New(6).Gaussian(1, 0, 1); got != 0 {
		t.Errorf("Gaussian(1,·) = %d, want 0", got)
	}
}

func TestGaussianFavoursNeighbours(t *testing.T) {
	r := New(7)
	n, mean := 101, 50
	near, far := 0, 0
	for i := 0; i < 20000; i++ {
		v := r.Gaussian(n, mean, float64(n)/5) // σ ≈ 20
		if d := v - mean; d >= -20 && d <= 20 {
			near++
		} else {
			far++
		}
	}
	// Within ±σ lies ≈68% of a Gaussian's mass.
	if got := float64(near) / 20000; got < 0.60 {
		t.Errorf("±σ neighbourhood holds %.2f of draws, want ≥ 0.60", got)
	}
	if far == 0 {
		t.Error("distant values never drawn; Gaussian should not dismiss them entirely")
	}
}

func TestGaussianPathologicalMean(t *testing.T) {
	r := New(8)
	// Mean far outside the range forces the rejection fallback.
	for i := 0; i < 100; i++ {
		v := r.Gaussian(10, 500, 0.5)
		if v < 0 || v >= 10 {
			t.Fatalf("out-of-range draw %d", v)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		in   []float64
		want []float64
	}{
		{[]float64{1, 1, 2}, []float64{0.25, 0.25, 0.5}},
		{[]float64{0, 0}, []float64{0.5, 0.5}},
		{[]float64{-1, 3}, []float64{0, 1}},
	}
	for _, c := range cases {
		got := Normalize(c.in)
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestNormalizeSumsToOne(t *testing.T) {
	if err := quick.Check(func(ws []float64) bool {
		if len(ws) == 0 {
			return true
		}
		sum := 0.0
		for _, v := range Normalize(ws) {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceAndMean(t *testing.T) {
	if v := Variance([]float64{5, 5, 5}); v != 0 {
		t.Errorf("Variance of constants = %v, want 0", v)
	}
	if v := Variance([]float64{1}); v != 0 {
		t.Errorf("Variance of single sample = %v, want 0", v)
	}
	if v := Variance([]float64{2, 4}); math.Abs(v-1) > 1e-9 {
		t.Errorf("Variance(2,4) = %v, want 1", v)
	}
	if m := Mean([]float64{1, 2, 3}); math.Abs(m-2) > 1e-9 {
		t.Errorf("Mean = %v, want 2", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v, want 0", m)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological float inputs
			}
		}
		return Variance(xs) >= 0
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPerm(t *testing.T) {
	r := New(9)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// TestStateRestore: a restored Rand must produce exactly the stream the
// exporting Rand would have produced — across every distribution the
// explorer draws from, and from any export point.
func TestStateRestore(t *testing.T) {
	r := New(99)
	// Burn an arbitrary mixed prefix so the export point is mid-stream.
	for i := 0; i < 257; i++ {
		r.Intn(17)
		r.Float64()
		r.Gaussian(40, 11, 3.5)
		r.Weighted([]float64{1, 2, 3, 0, 5})
	}
	st := r.State()
	clone := Restore(st)
	for i := 0; i < 500; i++ {
		if a, b := r.Intn(1000), clone.Intn(1000); a != b {
			t.Fatalf("Intn diverged at %d: %d vs %d", i, a, b)
		}
		if a, b := r.Gaussian(64, 30, 12), clone.Gaussian(64, 30, 12); a != b {
			t.Fatalf("Gaussian diverged at %d: %d vs %d", i, a, b)
		}
		w := []float64{0.5, 0, 3, 1, 1, 9}
		if a, b := r.InverseWeighted(w), clone.InverseWeighted(w); a != b {
			t.Fatalf("InverseWeighted diverged at %d: %d vs %d", i, a, b)
		}
	}
	if r.State() != clone.State() {
		t.Fatalf("states diverged: %+v vs %+v", r.State(), clone.State())
	}
}

// TestStateMatchesStockStream: every distribution the Rand computes from
// its raw draws gives math/rand's values, over several seeds and a mix
// of calls — Intn at powers of two, at general n and above 1<<31-1,
// Float64, NormFloat64 often enough that both of the ziggurat's slow
// paths run, Perm — and a Restore at 0, 1, 607 (the stock source's lag)
// and a long count continues the mixed stream where the stock one does.
func TestStateMatchesStockStream(t *testing.T) {
	var wedges, strips int
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		r, stock := New(seed), newStockRand(seed)
		// shadow steps the raw stream behind r, pos draws in.
		shadow, pos := newStockRand(seed), uint64(0)
		for i := 0; i < 20000; i++ {
			mixedStep(t, r, stock, i)
			for ; pos < r.draws; pos++ {
				shadow.Int63()
			}
			if a, b := r.normFloat64(), stock.NormFloat64(); a != b {
				t.Fatalf("seed %d step %d: normFloat64 %v, math/rand %v", seed, i, a, b)
			}
			// Classify the ziggurat's first strip from the raw draw it
			// took: past kn is a slow path, strip 0 the base strip.
			j := int32(uint32(shadow.Int63() >> 31))
			pos++
			if absInt32(j) >= kn[j&0x7F] {
				if j&0x7F == 0 {
					strips++
				} else {
					wedges++
				}
			}
		}
	}
	if wedges == 0 || strips == 0 {
		t.Fatalf("the ziggurat took %d wedge tests and %d base strips: both slow paths must run", wedges, strips)
	}
	t.Logf("%d wedge tests, %d base strips", wedges, strips)

	for _, draws := range []uint64{0, 1, 607, 416693} {
		r, stock := New(31), newStockRand(31)
		for r.State().Draws < draws {
			r.Int63()
			stock.Int63()
		}
		clone := Restore(r.State())
		for i := 0; i < 2000; i++ {
			mixedStep(t, clone, stock, i)
		}
	}
}

// mixedStep draws once from each distribution in turn, step i choosing
// the sizes, and fails on the first value that is not math/rand's.
func mixedStep(t *testing.T, r *Rand, stock *mrand.Rand, i int) {
	t.Helper()
	for _, n := range []int{1 << (i % 31), 3 + i%1000, 1<<31 - 1, 1<<31 + i, 1<<62 + 1} {
		if a, b := r.Intn(n), stock.Intn(n); a != b {
			t.Fatalf("step %d: Intn(%d) = %d, math/rand %d", i, n, a, b)
		}
	}
	if a, b := r.Float64(), stock.Float64(); a != b {
		t.Fatalf("step %d: Float64 %v, math/rand %v", i, a, b)
	}
	if i%50 == 0 {
		if a, b := r.Perm(i%40), stock.Perm(i%40); !slices.Equal(a, b) {
			t.Fatalf("step %d: Perm %v, math/rand %v", i, a, b)
		}
	}
}

// FuzzStream: any seed and any sequence of calls, one op byte each
// (its low bits pick the distribution, the rest its size), draw
// math/rand's values, and the draw counter lands where a Restore
// continues the stream.
func FuzzStream(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 0xff, 0x80})
	f.Add(int64(-9), []byte("\x04\x04\x04\x04\x04\x04\x04\x04\x05\xfd"))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		r, stock := New(seed), newStockRand(seed)
		for i, op := range ops {
			size := int(op >> 3)
			var a, b float64
			switch op & 7 {
			case 0:
				a, b = float64(r.Int63()), float64(stock.Int63())
			case 1:
				a, b = float64(r.Intn(1<<(size%31))), float64(stock.Intn(1<<(size%31)))
			case 2:
				a, b = float64(r.Intn(size+3)), float64(stock.Intn(size+3))
			case 3:
				n := 1<<31 + size*0x1234567
				a, b = float64(r.Intn(n)), float64(stock.Intn(n))
			case 4:
				a, b = r.normFloat64(), stock.NormFloat64()
			case 5:
				if p, q := r.Perm(size), stock.Perm(size); !slices.Equal(p, q) {
					t.Fatalf("op %d: Perm(%d) %v, math/rand %v", i, size, p, q)
				}
			default:
				a, b = r.Float64(), stock.Float64()
			}
			if a != b {
				t.Fatalf("op %d (%#x): %v, math/rand %v", i, op, a, b)
			}
		}
		if a, b := Restore(r.State()).Int63(), stock.Int63(); a != b {
			t.Fatalf("restored at %+v: %d, math/rand %d", r.State(), a, b)
		}
	})
}

// TestRestoreAtDrawCounts: a restore replays exactly the exported number
// of raw draws — none, one, past the stock source's 607-word lag, and a
// resumed long session's count — and continues the stream, counter
// included, where the exporter and the stock generator do.
func TestRestoreAtDrawCounts(t *testing.T) {
	for _, draws := range []uint64{0, 1, 607, 416693} {
		r, stock := New(31), newStockRand(31)
		for i := uint64(0); i < draws; i++ {
			r.Int63()
			stock.Int63()
		}
		st := r.State()
		clone := Restore(st)
		if st.Draws != draws || clone.State() != st {
			t.Fatalf("draws %d: exported %+v, restored to %+v", draws, st, clone.State())
		}
		for i := 0; i < 50; i++ {
			a, b, c := r.Int63(), clone.Int63(), stock.Int63()
			if a != b || b != c {
				t.Fatalf("draws %d: value %d after the restore is %d, the exporter's %d, the stock stream's %d", draws, i, b, a, c)
			}
		}
		if r.State() != clone.State() {
			t.Fatalf("draws %d: counters diverged: %+v vs %+v", draws, r.State(), clone.State())
		}
	}
}

// newStockRand builds an unwrapped math/rand generator for stream
// comparison.
func newStockRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

// TestDeriveSeedPureAndDistinct: DeriveSeed is a pure function of
// (seed, id) — equal inputs give equal outputs (sequential sharded runs
// stay deterministic) — and nearby ids and seeds give distinct,
// uncorrelated outputs.
func TestDeriveSeedPureAndDistinct(t *testing.T) {
	if DeriveSeed(42, 3) != DeriveSeed(42, 3) {
		t.Fatal("DeriveSeed is not deterministic")
	}
	seen := map[int64]bool{}
	for seed := int64(-2); seed <= 2; seed++ {
		for id := int64(0); id < 64; id++ {
			v := DeriveSeed(seed, id)
			if seen[v] {
				t.Fatalf("derived seed collision at seed=%d id=%d", seed, id)
			}
			seen[v] = true
		}
	}
}

// TestDeriveSeedKillsShardStride: the old additive per-shard derivation
// (base + i*1_000_003) made shard i of seed s collide with shard 0 of
// seed s + i*1_000_003. With the splitmix derivation, sessions whose
// base seeds differ by the stride must not share shard streams.
func TestDeriveSeedKillsShardStride(t *testing.T) {
	const stride = 1_000_003
	for _, base := range []int64{1, 7, 12345, -9} {
		for i := int64(1); i <= 8; i++ {
			shifted := base + i*stride
			// Shard i of session `base` vs shard 0 of session `shifted`
			// (which keeps its base seed): these were identical before.
			if DeriveSeed(base, i) == shifted {
				t.Fatalf("shard %d of seed %d collides with the stride-shifted base seed", i, base)
			}
			// And no pair of shard streams across the two sessions may
			// coincide either.
			for j := int64(1); j <= 8; j++ {
				if DeriveSeed(base, i) == DeriveSeed(shifted, j) {
					t.Fatalf("shard %d of seed %d collides with shard %d of seed %d", i, base, j, shifted)
				}
			}
		}
	}
}
