package prog

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"afex/internal/inject"
	"afex/internal/libc"
)

// TestBlockSumIsAFunctionOfTheSet: whatever order the blocks are summed
// in — a producer's own loop over a list (mix, closeSum), Go's randomised
// walk of the finished map (SumBlocks), the sorted list (SumAscending,
// which refuses any other order) — the sum is the same; it is 0 for the
// empty set only, and removing a block changes it.
func TestBlockSumIsAFunctionOfTheSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if sum, ok := SumAscending(nil); SumBlocks(nil) != 0 || SumBlocks(map[int]struct{}{}) != 0 || closeSum(0, 0) != 0 || sum != 0 || !ok {
		t.Error("the empty set must sum to 0")
	}
	for trial := 0; trial < 2000; trial++ {
		set := make(map[int]struct{})
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			set[rng.Intn(4000)-10] = struct{}{} // unvalidated programs may use 0 and negative ids
		}
		ids := make([]int, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sum := SumBlocks(set)
		if sum == 0 {
			t.Fatalf("the %d blocks %v summed to 0", len(ids), ids)
		}
		sort.Ints(ids)
		if got, ok := SumAscending(ids); !ok || got != sum {
			t.Fatalf("SumAscending(%v) = %#x, %v; want %#x", ids, got, ok, sum)
		}
		if len(ids) > 1 {
			if _, ok := SumAscending(append([]int{ids[1]}, ids[1:]...)); ok {
				t.Fatalf("SumAscending took a repeated id")
			}
		}
		for pass := 0; pass < 3; pass++ {
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			var acc uint64
			for _, id := range ids {
				acc += mix(id)
			}
			if got := closeSum(acc, len(ids)); got != sum || SumBlocks(set) != sum {
				t.Fatalf("order %v: sum %#x, then %#x, want %#x", ids, got, SumBlocks(set), sum)
			}
		}
		delete(set, ids[0])
		if SumBlocks(set) == sum {
			t.Fatalf("removing block %d left the sum at %#x", ids[0], sum)
		}
	}
}

// TestBlockSumRandomSetsDoNotCollide draws a million random sets the size
// and density of a model test's coverage; each is told apart from the
// others by an FNV hash of its sorted ids, an unrelated function.
func TestBlockSumRandomSetsDoNotCollide(t *testing.T) {
	n := 1000000
	if testing.Short() {
		n = 100000
	}
	rng := rand.New(rand.NewSource(2))
	type summed struct{ sum, fnv uint64 }
	sums := make([]summed, n)
	blocks := make(map[int]struct{}, 64)
	var sorted []int
	for i := range sums {
		clear(blocks)
		for j, k := 0, 1+rng.Intn(48); j < k; j++ {
			blocks[1+rng.Intn(3000)] = struct{}{}
		}
		sorted = sorted[:0]
		for b := range blocks {
			sorted = append(sorted, b)
		}
		sort.Ints(sorted)
		h := fnv.New64a()
		for _, b := range sorted {
			h.Write([]byte{byte(b), byte(b >> 8)})
		}
		sums[i] = summed{SumBlocks(blocks), h.Sum64()}
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i].sum < sums[j].sum })
	for i := 1; i < len(sums); i++ {
		if sums[i].sum == sums[i-1].sum && sums[i].fnv != sums[i-1].fnv {
			t.Fatalf("two of %d random sets share the sum %#x", n, sums[i].sum)
		}
	}
}

// TestBlockSetsInterning: the table hands back the first map interned
// under a sum, leaves sum 0 alone, and stops growing at its bound.
func TestBlockSetsInterning(t *testing.T) {
	var sets BlockSets
	a, again := map[int]struct{}{1: {}, 2: {}}, map[int]struct{}{1: {}, 2: {}}
	sum := SumBlocks(a)
	same := func(x, y map[int]struct{}) bool { return reflect.ValueOf(x).Pointer() == reflect.ValueOf(y).Pointer() }
	if sets.Lookup(sum) != nil || !same(sets.Intern(sum, a), a) {
		t.Error("the first set under a sum is the interned one")
	}
	if !same(sets.Intern(sum, again), a) || !same(sets.Lookup(sum), a) {
		t.Error("an equal set must come back as the interned map")
	}
	if got := sets.Intern(0, again); !same(got, again) || sets.Lookup(0) != nil {
		t.Error("sum 0 is not a key")
	}
	for i := 0; len(sets.sets) < maxBlockSets; i++ {
		sets.Intern(uint64(i)+1<<32, map[int]struct{}{i: {}})
	}
	late := map[int]struct{}{-1: {}}
	if got := sets.Intern(12345, late); !same(got, late) || len(sets.sets) != maxBlockSets || sets.Lookup(12345) != nil {
		t.Errorf("the table grew past its bound: %d entries", len(sets.sets))
	}
}

// TestRunsShareInternedSets: across a generated suite with a fault at
// each early call of each function, the interpreter materialises one map
// per distinct set — every outcome's Blocks is the table's entry for its
// sum — and a second Program built from the same model computes the same
// sums.
func TestRunsShareInternedSets(t *testing.T) {
	p, twin := Generate(genSpecForTest()), Generate(genSpecForTest())
	byPtr := map[uintptr]uint64{}
	for testID := range p.TestSuite {
		for i, fn := range p.FunctionsUsed() {
			call := 1 + (testID+i)%3
			plan := inject.Single(inject.Fault{Function: fn, CallNumber: call, Err: libc.ErrorReturn{Retval: -1, Errno: "EIO"}})
			out, want := Run(p, testID, plan), Run(twin, testID, plan)
			if out.BlockSum != SumBlocks(out.Blocks) || !reflect.DeepEqual(out, want) {
				t.Fatalf("test %d %s call %d: sum %#x over %v; the twin program says %+v", testID, fn, call, out.BlockSum, out.Blocks, want)
			}
			ptr := reflect.ValueOf(out.Blocks).Pointer()
			if sum, seen := byPtr[ptr]; seen && sum != out.BlockSum {
				t.Fatalf("one map handed out under two sums")
			}
			byPtr[ptr] = out.BlockSum
			if got := p.compile().sets.Lookup(out.BlockSum); reflect.ValueOf(got).Pointer() != ptr {
				t.Fatalf("test %d %s call %d: Blocks is not the interned map of its sum", testID, fn, call)
			}
		}
	}
	if n := len(p.compile().sets.sets); len(byPtr) != n || n < 2*len(p.TestSuite) {
		t.Errorf("%d maps handed out for %d interned sets over %d tests", len(byPtr), n, len(p.TestSuite))
	}
}
