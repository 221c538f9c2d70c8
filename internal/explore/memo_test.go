package explore

// The refusal memos of the fitness explorer: the set against a map, and
// the explorer that consults them against the reference loop, which
// renders and probes every attempt, long enough for memos to fill, leave
// the pool both ways and be reused, and across an in-place resume.

import (
	"fmt"
	"math"
	"testing"

	"afex/internal/faultspace"
)

// FuzzRefusals: any sequence of adds, probes and resets agrees with a
// map, with values up to the largest an axis can hold and from any
// starting generation, so a run of resets wraps the generation and
// clears the table. Each op byte picks a pair from a small universe; its
// top bits pick add (only of an absent pair, as Next does), probe or
// reset.
func FuzzRefusals(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x40, 0x41, 0x80, 0x40, 4}, uint32(0))
	// Twenty adds grow the table past its first size; three resets from
	// the last generation but two wrap it.
	grow := append(make([]byte, 20), 0x80, 0x80, 0x80, 0, 0, 0, 0x40, 0x41, 0x42, 0x43)
	f.Add(grow, uint32(math.MaxUint32-3))
	values := []int{0, 1, 2, 3, 7, 255, 1 << 31, 1<<32 - 1, 1 << 32, 1<<47 + 1, math.MaxInt - 1, math.MaxInt}
	axes := []int{0, 1, 2, 1<<32 - 3}
	f.Fuzz(func(t *testing.T, ops []byte, gen uint32) {
		r := &refusals{gen: uint64(gen) % (1<<32 - 1)}
		ref := map[[2]int]bool{}
		for i, op := range ops {
			// Spread a byte over the whole universe: the low six bits and
			// the op's position.
			k := int(op&0x3f) + i
			axis, v := axes[k%len(axes)], values[(k/len(axes))%len(values)]
			switch op >> 6 {
			case 0, 3:
				if !r.has(axis, v) {
					r.add(axis, v)
					ref[[2]int{axis, v}] = true
				}
			case 1:
				if r.has(axis, v) != ref[[2]int{axis, v}] {
					t.Fatalf("op %d: has(%d, %d) = %v, the map says %v", i, axis, v, !ref[[2]int{axis, v}], ref[[2]int{axis, v}])
				}
			case 2:
				r.reset()
				clear(ref)
			}
		}
		if r.n != len(ref) {
			t.Fatalf("%d entries, the map holds %d", r.n, len(ref))
		}
		for p := range ref {
			if !r.has(p[0], p[1]) {
				t.Fatalf("%v entered but not found", p)
			}
		}
	})
}

func memoSpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("m",
		faultspace.IntAxis("x", 0, 15), faultspace.IntAxis("y", 0, 23), faultspace.IntAxis("z", 0, 5)))
}

// memoWatch follows which member each memo serves: how many memos moved
// to a new member after their first left the pool, and the fullest memo.
type memoWatch struct {
	owner   map[*refusals]*executed
	reused  int
	fullest int
}

func (w *memoWatch) look(t *testing.T, fg *FitnessGuided) {
	t.Helper()
	if len(fg.refused) != len(fg.pool) {
		t.Fatalf("%d memos for %d pool members", len(fg.refused), len(fg.pool))
	}
	for i, r := range fg.refused {
		if r == nil {
			continue
		}
		if was, ok := w.owner[r]; ok && was != fg.pool[i] {
			w.reused++
		}
		w.owner[r] = fg.pool[i]
		w.fullest = max(w.fullest, r.n)
	}
}

// TestFitnessMemoMatchesReference: on a 2,304-point space, one config
// where members leave the pool only by retiring, one only by eviction
// and the full algorithm, the explorer with memos proposes the
// reference's candidates step for step, while memos fill, are recycled
// and serve new members. Halfway it exports its state at rest; at three
// quarters both sides import that older state in place — the one time
// "taken" shrinks — and carry on in lockstep to exhaustion.
func TestFitnessMemoMatchesReference(t *testing.T) {
	const steps = 1600
	for name, tc := range map[string]struct {
		cfg     Config
		poolCap int
	}{
		"retire":   {poolCap: steps + 1},
		"eviction": {cfg: Config{NoAging: true}, poolCap: queueSize},
		"full":     {poolCap: queueSize},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := tc.cfg
			cfg.Seed = seed
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				got, want := NewFitnessGuided(memoSpace(), cfg), newRefFitness(memoSpace(), cfg)
				got.poolCap, want.poolCap = tc.poolCap, tc.poolCap
				w := &memoWatch{owner: map[*refusals]*executed{}}
				var mid *State
				for i := 0; i < steps; i++ {
					lockstep(t, got, want, 1)
					w.look(t, got)
					if i == steps/2 {
						mid = got.ExportState()
					}
				}
				if w.reused == 0 || w.fullest < 9 {
					t.Fatalf("memos reused %d times, fullest held %d: the run did not exercise them", w.reused, w.fullest)
				}
				if err := got.ImportState(mid); err != nil {
					t.Fatal(err)
				}
				if err := want.ImportState(mid); err != nil {
					t.Fatal(err)
				}
				lockstep(t, got, want, int(memoSpace().Size()))
				if _, ok := got.Next(); ok {
					t.Fatal("the space is not exhausted")
				}
			})
		}
	}
}

// TestMetaExplorersResumeInPlace: a sharded fitness explorer and a
// portfolio that import an older state of their own in place — their
// arms' and shards' memos full of refusals the older state never saw —
// continue exactly as a fresh explorer that imports the same state.
func TestMetaExplorersResumeInPlace(t *testing.T) {
	for name, mk := range map[string]func() Explorer{
		"sharded-fitness": func() Explorer { return newSharded(memoSpace(), 3, Config{Seed: 4}) },
		"portfolio":       func() Explorer { return NewPortfolio(memoSpace(), Config{Seed: 4}) },
	} {
		t.Run(name, func(t *testing.T) {
			live := mk()
			driveKeys(live, 700)
			st := live.ExportState()
			driveKeys(live, 700)
			fresh := mk()
			if err := live.ImportState(st); err != nil {
				t.Fatal(err)
			}
			if err := fresh.ImportState(st); err != nil {
				t.Fatal(err)
			}
			a, b := driveKeys(live, 1000), driveKeys(fresh, 1000)
			if len(a) != len(b) {
				t.Fatalf("continuations of %d and %d candidates", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("continuations diverge at %d: %s in place, %s fresh", i, a[i], b[i])
				}
			}
		})
	}
}
