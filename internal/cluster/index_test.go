package cluster

import (
	"fmt"
	"testing"

	"afex/internal/xrand"
)

// naiveSet is the pre-index reference implementation: linear scans over
// clusters (Add) and over every remembered stack (MaxSimilarity). The
// indexed Set must be observationally identical to it.
type naiveSet struct {
	threshold int
	clusters  []Cluster
	all       [][]string
}

func (s *naiveSet) add(id int, stack []string) (int, bool) {
	s.all = append(s.all, stack)
	best, bestDist := -1, int(^uint(0)>>1)
	for i := range s.clusters {
		d := Levenshtein(stack, s.clusters[i].Representative)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	if best >= 0 && bestDist <= s.threshold {
		s.clusters[best].Members = append(s.clusters[best].Members, id)
		return best, false
	}
	s.clusters = append(s.clusters, Cluster{
		Representative: append([]string(nil), stack...),
		Members:        []int{id},
	})
	return len(s.clusters) - 1, true
}

func (s *naiveSet) maxSimilarity(stack []string) float64 {
	best := 0.0
	for _, other := range s.all {
		if sim := Similarity(stack, other); sim > best {
			best = sim
		}
	}
	return best
}

// randomStacks generates a workload with many repeated stacks, near
// misses, varied depths and shared prefixes — the shapes injection
// traces actually take.
func randomStacks(rng *xrand.Rand, n int) [][]string {
	modules := []string{"srv", "io", "net", "myisam", "mem"}
	out := make([][]string, n)
	for i := range out {
		depth := 1 + rng.Intn(7)
		st := make([]string, depth)
		for j := range st {
			st[j] = fmt.Sprintf("%s!f%d", modules[rng.Intn(len(modules))], rng.Intn(6))
		}
		out[i] = st
	}
	// Sprinkle exact repeats of earlier stacks.
	for i := n / 2; i < n; i += 3 {
		out[i] = out[rng.Intn(i)]
	}
	return out
}

func TestIndexedSetMatchesNaiveReference(t *testing.T) {
	for _, threshold := range []int{0, 1, 2, 3} {
		rng := xrand.New(int64(41 + threshold))
		stacks := randomStacks(rng, 400)
		idx := NewSet(threshold)
		ref := &naiveSet{threshold: threshold}
		for id, st := range stacks {
			gi, gn := idx.Add(id, st)
			wi, wn := ref.add(id, st)
			if gi != wi || gn != wn {
				t.Fatalf("threshold %d, add %d (%v): indexed (%d,%v) != naive (%d,%v)",
					threshold, id, st, gi, gn, wi, wn)
			}
			// Probe similarity with both a seen and an unseen stack.
			probe := stacks[rng.Intn(id+1)]
			if g, w := idx.MaxSimilarity(probe), ref.maxSimilarity(probe); g != w {
				t.Fatalf("threshold %d after %d adds: MaxSimilarity(%v) = %v, naive %v",
					threshold, id+1, probe, g, w)
			}
		}
		fresh := []string{"other!x0", "other!x1", "other!x2", "other!x3", "other!x4", "other!x5", "other!x6", "other!x7"}
		for cut := 0; cut <= len(fresh); cut++ {
			probe := fresh[:cut]
			if g, w := idx.MaxSimilarity(probe), ref.maxSimilarity(probe); g != w {
				t.Fatalf("threshold %d: MaxSimilarity(depth %d) = %v, naive %v", threshold, cut, g, w)
			}
		}
		if idx.Len() != len(ref.clusters) {
			t.Fatalf("threshold %d: %d clusters, naive %d", threshold, idx.Len(), len(ref.clusters))
		}
		refSet := &Set{Threshold: threshold, clusters: ref.clusters}
		gc, wc := idx.Clusters(), refSet.Clusters()
		for i := range gc {
			if len(gc[i].Members) != len(wc[i].Members) {
				t.Fatalf("threshold %d: cluster %d sizes differ: %d vs %d",
					threshold, i, len(gc[i].Members), len(wc[i].Members))
			}
		}
	}
}

func TestZeroValueSetStillWorks(t *testing.T) {
	var s Set // Threshold 0, no NewSet
	if got := s.MaxSimilarity([]string{"a"}); got != 0 {
		t.Errorf("empty zero-value set similarity = %v", got)
	}
	if id, isNew := s.Add(0, []string{"a"}); id != 0 || !isNew {
		t.Errorf("zero-value Add = (%d, %v)", id, isNew)
	}
	if id, isNew := s.Add(1, []string{"a"}); id != 0 || isNew {
		t.Errorf("zero-value exact re-add = (%d, %v)", id, isNew)
	}
	if s.Len() != 1 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestBoundedLevenshteinMatchesFull(t *testing.T) {
	rng := xrand.New(99)
	stacks := randomStacks(rng, 200)
	for _, limit := range []int{0, 1, 2, 3, 5} {
		for i := 0; i < len(stacks); i += 2 {
			a, b := stacks[i], stacks[i+1]
			full := Levenshtein(a, b)
			got := boundedLevenshtein(a, b, limit)
			want := full
			if full > limit {
				want = limit + 1
			}
			if got != want {
				t.Fatalf("boundedLevenshtein(%v, %v, %d) = %d, want %d (full %d)",
					a, b, limit, got, want, full)
			}
		}
	}
}

// TestBoundedLevenshteinDeepStacks walks the boundary where the DP rows
// leave the goroutine stack: 64 frames and fewer allocate nothing, deeper
// stacks allocate their two rows, and the answers on either side are the
// full computation's.
func TestBoundedLevenshteinDeepStacks(t *testing.T) {
	rng := xrand.New(5)
	deep := func(n int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = fmt.Sprintf("m%d!f%d", rng.Intn(3), rng.Intn(5))
		}
		return s
	}
	for _, n := range []int{1, 8, 63, 64, 65, 66, 100} {
		for trial := 0; trial < 20; trial++ {
			a := deep(n)
			b := append([]string(nil), a...)
			for e := rng.Intn(6); e > 0 && len(b) > 1; e-- {
				switch i := rng.Intn(len(b)); rng.Intn(3) {
				case 0:
					b[i] = "edited"
				case 1:
					b = append(b[:i], b[i+1:]...)
				default:
					b = append(b[:i+1], b[i:]...)
				}
			}
			for _, limit := range []int{0, 2, 7, n} {
				want := Levenshtein(a, b)
				if want > limit {
					want = limit + 1
				}
				if got := boundedLevenshtein(a, b, limit); got != want {
					t.Fatalf("%d frames, limit %d: %d, want %d", n, limit, got, want)
				}
			}
		}
		if raceEnabled {
			continue
		}
		a, b := deep(n), deep(n)
		want := 0.0
		if n > 64 {
			want = 2
		}
		if got := testing.AllocsPerRun(50, func() { boundedLevenshtein(a, b, n) }); got != want {
			t.Errorf("%d frames: %v allocations per comparison, want %v", n, got, want)
		}
	}
}
