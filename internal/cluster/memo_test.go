package cluster

// Property tests for the fold-pipeline similarity machinery: the
// memoized, frame-indexed, bounded MaxSimilarity (and its split
// PeekSimilarity/ResolveSimilarity form, including stale peeks resolved
// after later adds) must be value-identical to the naive
// full-Levenshtein linear reference on randomized stack corpora, and
// the whole index — including behaviour the memo and frame index
// influence — must survive a snapshot/restore round trip. The reference
// keeps every stack occurrence; the Set remembers each distinct stack
// once, so every corpus here (the duplicate-heavy one above all) also
// holds that deduplication to the occurrence-keeping answers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"afex/internal/xrand"
)

// deepStacks generates stacks of 6–16 frames with heavy
// near-duplication, so walks of the frame index meet many stacks
// sharing most of their frames and run against high bests and tight
// bands.
func deepStacks(rng *xrand.Rand, n int) [][]string {
	base := make([][]string, n/8+1)
	for i := range base {
		depth := 6 + rng.Intn(11)
		st := make([]string, depth)
		for j := range st {
			st[j] = fmt.Sprintf("m%d!f%d", rng.Intn(8), rng.Intn(24))
		}
		base[i] = st
	}
	out := make([][]string, n)
	for i := range out {
		st := base[rng.Intn(len(base))]
		switch rng.Intn(4) {
		case 0: // exact repeat
		case 1: // one-frame mutation
			st = append([]string(nil), st...)
			st[rng.Intn(len(st))] = fmt.Sprintf("m%d!f%d", rng.Intn(8), rng.Intn(24))
		case 2: // truncation (shorter neighbours)
			st = st[:1+rng.Intn(len(st))]
		case 3: // head mutation
			st = append([]string(nil), st...)
			st[0] = fmt.Sprintf("m%d!f%d", rng.Intn(8), rng.Intn(24))
		}
		out[i] = st
	}
	return out
}

// recursiveStacks generates recursion-shaped stacks over a handful of
// frames — a cycle such as "a b a b a" repeated to a depth, then
// mutated — so a frame occurs many times in one stack and the
// shared-frame counts the frame index bounds distances with are
// multisets, not sets.
func recursiveStacks(rng *xrand.Rand, n int) [][]string {
	frame := func() string { return fmt.Sprintf("r!f%d", rng.Intn(5)) }
	out := make([][]string, n)
	for i := range out {
		cycle := make([]string, 1+rng.Intn(3))
		for j := range cycle {
			cycle[j] = frame()
		}
		st := make([]string, 1+rng.Intn(14))
		for j := range st {
			st[j] = cycle[j%len(cycle)]
		}
		for edits := rng.Intn(3); edits > 0; edits-- {
			st[rng.Intn(len(st))] = frame()
		}
		out[i] = st
	}
	return out
}

// repeatStacks generates a duplicate-heavy corpus — n draws from about
// n/25 distinct stacks, the shape of a real session, where injection at
// one call site reproduces one stack — with shared frames and varied
// depths so the few distinct stacks are still near misses of each other.
func repeatStacks(rng *xrand.Rand, n int) [][]string {
	distinct := randomStacks(rng, n/25+2)
	out := make([][]string, n)
	for i := range out {
		out[i] = distinct[rng.Intn(len(distinct))]
	}
	return out
}

// driftStacks generates chains that wander a frame or two at a time
// away from a base stack, every link of every chain coming round again
// later: a stack absorbed by an early cluster keeps meeting clusters
// founded since that are nearer, which is where AddKeyed's per-key memo
// has to rescan and move it rather than repeat its first answer.
func driftStacks(rng *xrand.Rand, n int) [][]string {
	frame := func() string { return fmt.Sprintf("m%d!f%d", rng.Intn(6), rng.Intn(40)) }
	var links [][]string
	for len(links) < n/4 {
		st := make([]string, 8+rng.Intn(4))
		for j := range st {
			st[j] = frame()
		}
		for hop := 0; hop < 6; hop++ {
			links = append(links, st)
			st = append([]string(nil), st...)
			for edits := 1 + rng.Intn(2); edits > 0; edits-- {
				st[rng.Intn(len(st))] = frame()
			}
		}
	}
	out := make([][]string, n)
	for i := range out {
		if i < len(links) {
			out[i] = links[i]
		} else {
			out[i] = links[rng.Intn(len(links))]
		}
	}
	return out
}

// TestRepeatMovesToNearerCluster: B is absorbed by A's cluster at
// distance 3; C, two frames from B and five from A, then founds its
// own. The next B belongs to C's cluster — the memoized (0, 3) is a
// bound to beat, not the answer — and stays there.
func TestRepeatMovesToNearerCluster(t *testing.T) {
	a := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"}
	b := append([]string{"x", "y", "z"}, a[3:]...)
	c := append([]string{"x", "y", "z", "p", "q"}, a[5:]...)
	idx, ref := NewSet(3), &naiveSet{threshold: 3}
	for id, step := range []struct {
		stack []string
		want  int
		isNew bool
	}{{a, 0, true}, {b, 0, false}, {b, 0, false}, {c, 1, true}, {b, 1, false}, {b, 1, false}, {a, 0, false}} {
		gi, gn := idx.Add(id, step.stack)
		wi, wn := ref.add(id, step.stack)
		if gi != step.want || gn != step.isNew || gi != wi || gn != wn {
			t.Fatalf("add %d (%v) = (%d,%v), want (%d,%v), naive (%d,%v)",
				id, step.stack, gi, gn, step.want, step.isNew, wi, wn)
		}
	}
}

// TestRepeatedAbsorbedStackAllocatesNothing pins what the memo buys: a
// stack some cluster absorbed costs its repeats three map probes — no
// candidate list, no sort, no distance matrix.
func TestRepeatedAbsorbedStackAllocatesNothing(t *testing.T) {
	rng := xrand.New(5)
	set := NewSet(2)
	stacks := driftStacks(rng, 200)
	for id, st := range stacks {
		set.Add(id, st)
	}
	var absorbed []string
	for _, st := range stacks {
		if _, rep := set.repByKey[stackKey(st)]; !rep {
			absorbed = st
			break
		}
	}
	if absorbed == nil {
		t.Fatal("corpus has no absorbed stack")
	}
	key := StackKey(absorbed)
	if n := testing.AllocsPerRun(1000, func() { set.AddKeyed(0, absorbed, key) }); n != 0 {
		t.Fatalf("AddKeyed of a repeated absorbed stack allocates %v objects", n)
	}
}

// exportJSON round-trips a set's exported state through the encoding
// the store uses.
func exportJSON(t *testing.T, s *Set) ([]byte, *SetState) {
	t.Helper()
	blob, err := json.Marshal(s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	st := new(SetState)
	if err := json.Unmarshal(blob, st); err != nil {
		t.Fatal(err)
	}
	return blob, st
}

// checkExportedMemory holds idx's exported state to the occurrence-
// keeping reference it was fed alongside: the memory is the distinct
// stacks; export → import → export is a fixed point; and a state in the
// shape written before the memory deduplicated (every occurrence listed)
// imports to a set that answers, clusters and re-exports the same.
func checkExportedMemory(t *testing.T, idx *Set, ref *naiveSet, probes [][]string) {
	t.Helper()
	distinct := make(map[string]bool)
	for _, st := range ref.all {
		distinct[stackKey(st)] = true
	}
	blob, st := exportJSON(t, idx)
	if len(st.Stacks) != len(distinct) {
		t.Fatalf("exported %d stacks for %d distinct among %d added", len(st.Stacks), len(distinct), len(ref.all))
	}
	clone, err := newSetFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := exportJSON(t, clone); !bytes.Equal(again, blob) {
		t.Fatal("export → import → export is not a fixed point")
	}
	_, legacy := exportJSON(t, idx)
	legacy.Stacks = nil
	for _, stack := range st.Stacks {
		legacy.Stacks = append(legacy.Stacks, stack, stack, stack)
	}
	old, err := newSetFromState(legacy)
	if err != nil {
		t.Fatal(err)
	}
	for i, probe := range probes {
		want := ref.maxSimilarity(probe)
		key := StackKey(probe)
		for name, set := range map[string]*Set{"live": idx, "reimported": clone, "legacy": old} {
			sim, ver := set.PeekSimilarity(probe, key)
			if got := set.ResolveSimilarity(probe, key, sim, ver); got != want {
				t.Fatalf("%s set: similarity of %v = %v, occurrence-keeping reference %v", name, probe, got, want)
			}
		}
		id := len(ref.all)
		wi, wn := ref.add(id, probe)
		for name, set := range map[string]*Set{"live": idx, "reimported": clone, "legacy": old} {
			if gi, gn := set.AddKeyed(id, probe, key); gi != wi || gn != wn {
				t.Fatalf("%s set: add %d (%v) = (%d,%v), reference (%d,%v)", name, i, probe, gi, gn, wi, wn)
			}
		}
	}
	want, _ := exportJSON(t, idx)
	for name, set := range map[string]*Set{"reimported": clone, "legacy": old} {
		if got, _ := exportJSON(t, set); !bytes.Equal(got, want) {
			t.Fatalf("%s set re-exports different bytes after identical traffic", name)
		}
	}
}

func TestScreenedMemoizedSimilarityMatchesNaive(t *testing.T) {
	corpora := []struct {
		name string
		gen  func(*xrand.Rand, int) [][]string
		n    int
	}{
		{"shallow", randomStacks, 400},
		{"deep", deepStacks, 300},
		{"repeats", repeatStacks, 600},
		{"drift", driftStacks, 400},
		{"recursive", recursiveStacks, 400},
	}
	for _, corpus := range corpora {
		for _, threshold := range []int{0, 1, 2, 3} {
			t.Run(fmt.Sprintf("%s/threshold=%d", corpus.name, threshold), func(t *testing.T) {
				rng := xrand.New(int64(61 + threshold))
				stacks := corpus.gen(rng, corpus.n)
				idx := NewSet(threshold)
				ref := &naiveSet{threshold: threshold}

				// Stale screens: peek now, resolve after `delay` further
				// adds — exactly the pipeline's precompute-then-commit
				// shape.
				type peek struct {
					stack   []string
					key     string
					sim     float64
					version int
					due     int
				}
				var pending []peek

				resolveDue := func(id int) {
					kept := pending[:0]
					for _, p := range pending {
						if p.due > id {
							kept = append(kept, p)
							continue
						}
						got := idx.ResolveSimilarity(p.stack, p.key, p.sim, p.version)
						if want := ref.maxSimilarity(p.stack); got != want {
							t.Fatalf("after %d adds: Resolve(Peek@v%d)(%v) = %v, naive %v",
								id, p.version, p.stack, got, want)
						}
					}
					pending = kept
				}

				for id, st := range stacks {
					probe := stacks[rng.Intn(len(stacks))]
					key := StackKey(probe)
					sim, ver := idx.PeekSimilarity(probe, key)
					pending = append(pending, peek{probe, key, sim, ver, id + 1 + rng.Intn(5)})

					gi, gn := idx.AddKeyed(id, st, StackKey(st))
					wi, wn := ref.add(id, st)
					if gi != wi || gn != wn {
						t.Fatalf("add %d (%v): indexed (%d,%v) != naive (%d,%v)", id, st, gi, gn, wi, wn)
					}
					resolveDue(id)

					// Memoized path: the second probe of the same stack
					// answers from the memo and must still match naive.
					probe2 := stacks[rng.Intn(len(stacks))]
					want := ref.maxSimilarity(probe2)
					if got := idx.MaxSimilarity(probe2); got != want {
						t.Fatalf("after %d adds: MaxSimilarity(%v) = %v, naive %v", id+1, probe2, got, want)
					}
					if got := idx.MaxSimilarity(probe2); got != want {
						t.Fatalf("after %d adds: memoized MaxSimilarity(%v) = %v, naive %v", id+1, probe2, got, want)
					}
				}
				resolveDue(len(stacks) + 10)

				// Depth-0 through deep fresh probes, never added.
				fresh := make([]string, 0, 18)
				for i := 0; i < 18; i++ {
					probe := append([]string(nil), fresh...)
					if g, w := idx.MaxSimilarity(probe), ref.maxSimilarity(probe); g != w {
						t.Fatalf("fresh depth-%d probe: %v, naive %v", len(probe), g, w)
					}
					fresh = append(fresh, fmt.Sprintf("other!x%d", i))
				}

				checkExportedMemory(t, idx, ref, corpus.gen(rng, 60))
			})
		}
	}
}

// TestResumePreservesSimilarityIndex: a Set rebuilt from an exported
// snapshot must keep answering Add / MaxSimilarity / Peek+Resolve
// identically to the original as both continue, and re-exporting both
// after further identical traffic must produce identical bytes — the
// memo and frame index are derived state and must not leak into (or be
// required by) the snapshot.
func TestResumePreservesSimilarityIndex(t *testing.T) {
	rng := xrand.New(73)
	stacks := deepStacks(rng, 400)
	orig := NewSet(2)
	for id, st := range stacks[:200] {
		orig.Add(id, st)
		if id%3 == 0 {
			// Warm the memo so the export happens with live cache state.
			orig.MaxSimilarity(stacks[rng.Intn(len(stacks))])
		}
	}

	blob, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st SetState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	clone, err := newSetFromState(&st)
	if err != nil {
		t.Fatal(err)
	}

	for id := 200; id < 400; id++ {
		probe := stacks[rng.Intn(len(stacks))]
		key := StackKey(probe)
		so, vo := orig.PeekSimilarity(probe, key)
		sc, vc := clone.PeekSimilarity(probe, key)
		ro := orig.ResolveSimilarity(probe, key, so, vo)
		rc := clone.ResolveSimilarity(probe, key, sc, vc)
		if ro != rc {
			t.Fatalf("id %d: resolved similarity diverged: %v vs %v", id, ro, rc)
		}
		if a, b := orig.MaxSimilarity(probe), clone.MaxSimilarity(probe); a != b {
			t.Fatalf("id %d: MaxSimilarity diverged: %v vs %v", id, a, b)
		}
		stk := stacks[id]
		ca, na := orig.Add(id, stk)
		cb, nb := clone.Add(id, stk)
		if ca != cb || na != nb {
			t.Fatalf("id %d: Add diverged: (%d,%v) vs (%d,%v)", id, ca, na, cb, nb)
		}
	}

	ob, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(clone.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ob, cb) {
		t.Fatal("re-exported snapshots diverged after identical post-restore traffic")
	}
}

// TestRestoredSetPeeksLikeNaive: a set rebuilt from a snapshot has no
// frame index; its first questions — peeks under the shared lock, which
// must build the index first — answer what the naive reference does.
func TestRestoredSetPeeksLikeNaive(t *testing.T) {
	for _, corpus := range []func(*xrand.Rand, int) [][]string{deepStacks, recursiveStacks} {
		rng := xrand.New(29)
		stacks := corpus(rng, 300)
		orig, ref := NewSet(2), &naiveSet{threshold: 2}
		for id, st := range stacks[:200] {
			orig.Add(id, st)
			ref.add(id, st)
		}
		_, st := exportJSON(t, orig)
		clone, err := newSetFromState(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, probe := range stacks[200:] {
			key := StackKey(probe)
			sim, ver := clone.PeekSimilarity(probe, key)
			if want := ref.maxSimilarity(probe); sim != want || ver != len(st.Stacks) {
				t.Fatalf("restored set: peek of %v = (%v, v%d), naive %v at v%d", probe, sim, ver, want, len(st.Stacks))
			}
		}
	}
}

// TestUnaskedSetIndexesNothing: adds and a restore build no frame index
// — the failure and crash sets, a session without feedback and a fresh
// resume never pay for one — and the first question builds it whole.
func TestUnaskedSetIndexesNothing(t *testing.T) {
	stacks := recursiveStacks(xrand.New(3), 200)
	set := NewSet(1)
	for id, st := range stacks {
		set.AddKeyed(id, st, StackKey(st))
	}
	_, st := exportJSON(t, set)
	clone, err := newSetFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Set{"added": set, "restored": clone} {
		if s.indexed != 0 || len(s.postings) != 0 {
			t.Fatalf("%s set: %d stacks indexed, %d frames posted, with nothing asked", name, s.indexed, len(s.postings))
		}
		s.MaxSimilarity([]string{"never!seen"})
		if s.indexed != len(s.log) || len(s.postings) == 0 {
			t.Fatalf("%s set: %d of %d stacks indexed after a question", name, s.indexed, len(s.log))
		}
	}
}

// TestConcurrentPeeksResolveToNaive: four goroutines peek while a fifth
// adds and resolves, so peeks find the index behind (and take the
// exclusive lock to extend it) and walk side by side (one on the set's
// scratch, the others on their own). A peek answers for the distinct
// stacks logged at its version, which the reference knows in advance,
// and every answer resolved afterwards is the reference's.
func TestConcurrentPeeksResolveToNaive(t *testing.T) {
	rng := xrand.New(11)
	stacks := append(recursiveStacks(rng, 150), deepStacks(rng, 150)...)
	var distinct [][]string
	seen := make(map[string]bool)
	for _, st := range stacks {
		if k := stackKey(st); !seen[k] {
			seen[k] = true
			distinct = append(distinct, st)
		}
	}
	at := func(probe []string, version int) float64 {
		return (&naiveSet{all: distinct[:version]}).maxSimilarity(probe)
	}
	probes := append(recursiveStacks(rng, 20), deepStacks(rng, 20)...)

	set := NewSet(2)
	type peek struct {
		probe   []string
		sim     float64
		version int
	}
	// Each peeker peeks once per add, so the work stays bounded however
	// the goroutines are scheduled.
	var added atomic.Int64
	var wg sync.WaitGroup
	results := make([][]peek, 4)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, last := g, int64(-1); last < int64(len(stacks)); i++ {
				n := added.Load()
				if n == last {
					runtime.Gosched()
					continue
				}
				last = n
				p := probes[i%len(probes)]
				sim, ver := set.PeekSimilarity(p, StackKey(p))
				results[g] = append(results[g], peek{p, sim, ver})
			}
		}(g)
	}
	// The adder folds as the engine does: resolve the stack's own
	// screen, then add it — which leaves the peekers' probes unmemoized.
	for id, st := range stacks {
		key := StackKey(st)
		sim, ver := set.PeekSimilarity(st, key)
		if got, want := set.ResolveSimilarity(st, key, sim, ver), at(st, len(set.log)); got != want {
			t.Fatalf("add %d: %v resolved = %v, naive %v", id, st, got, want)
		}
		set.AddKeyed(id, st, key)
		added.Add(1)
	}
	wg.Wait()

	for g, rs := range results {
		for _, r := range rs {
			if want := at(r.probe, r.version); r.sim != want {
				t.Fatalf("peeker %d: %v at v%d = %v, naive %v", g, r.probe, r.version, r.sim, want)
			}
			if got, want := set.ResolveSimilarity(r.probe, StackKey(r.probe), r.sim, r.version), at(r.probe, len(distinct)); got != want {
				t.Fatalf("peeker %d: %v resolved from v%d = %v, naive %v", g, r.probe, r.version, got, want)
			}
		}
	}
}
