package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// newSetFromState restores one set the way a session restores three.
func newSetFromState(st *SetState) (*Set, error) {
	sets, _, err := NewSetsFromState(st)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// randomStack generates small synthetic stacks with heavy overlap so the
// sets exercise clustering, exact re-triggers, and near misses.
func randomStack(rng *rand.Rand) []string {
	depth := 2 + rng.Intn(5)
	stack := make([]string, depth)
	for i := range stack {
		stack[i] = fmt.Sprintf("frame_%d", rng.Intn(6))
	}
	return stack
}

// TestSetStateRoundTrip: an imported set must behave identically to the
// exporter — same clusters, and the same Add/MaxSimilarity answers for
// any future stack — including through the JSON encoding the store uses.
func TestSetStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	orig := NewSet(2)
	for id := 0; id < 300; id++ {
		orig.Add(id, randomStack(rng))
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

	if clone.Len() != orig.Len() {
		t.Fatalf("cluster counts differ: %d vs %d", clone.Len(), orig.Len())
	}
	oc, cc := orig.Clusters(), clone.Clusters()
	for i := range oc {
		if stackKey(oc[i].Representative) != stackKey(cc[i].Representative) {
			t.Fatalf("cluster %d representative differs", i)
		}
		if len(oc[i].Members) != len(cc[i].Members) {
			t.Fatalf("cluster %d member count differs", i)
		}
	}

	// Future behaviour must match exactly: same similarity, same cluster
	// assignment, same novelty verdicts.
	for id := 300; id < 500; id++ {
		stack := randomStack(rng)
		if a, b := orig.MaxSimilarity(stack), clone.MaxSimilarity(stack); a != b {
			t.Fatalf("MaxSimilarity diverged on %v: %v vs %v", stack, a, b)
		}
		ca, na := orig.Add(id, stack)
		cb, nb := clone.Add(id, stack)
		if ca != cb || na != nb {
			t.Fatalf("Add diverged on %v: (%d,%v) vs (%d,%v)", stack, ca, na, cb, nb)
		}
	}
}

// TestRestoredSetsShareNothingWritable: NewSetsFromState adopts the
// state's slices instead of copying them, so two sets restored from one
// state share every representative, member list and stack — here with
// the spare capacity a JSON decode leaves behind them. Adding to both —
// joining existing clusters, founding new ones, remembering new stacks —
// changes neither the state nor what the other set holds: each ends as a
// set restored on its own and fed the same stacks does.
func TestRestoredSetsShareNothingWritable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := NewSet(1)
	for id := 0; id < 200; id++ {
		orig.Add(id, randomStack(rng))
	}
	blob, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	decode := func() *SetState {
		var st SetState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		return &st
	}
	restore := func(st *SetState) *Set {
		s, err := newSetFromState(st)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	feeds := [2][][]string{}
	for i := range feeds {
		for id := 0; id < 200; id++ {
			stack := randomStack(rng)
			if id%3 == 0 {
				stack = append(stack, fmt.Sprintf("novel_%d_%d", i, id))
			}
			feeds[i] = append(feeds[i], stack)
		}
	}
	shared := decode()
	sets := [2]*Set{restore(shared), restore(shared)}
	for id := range feeds[0] {
		for i, s := range sets {
			s.Add(200+id, feeds[i][id])
		}
	}
	if after, _ := json.Marshal(shared); string(after) != string(blob) {
		t.Fatal("adding to the restored sets changed the state they were restored from")
	}
	for i, s := range sets {
		alone := restore(decode())
		for id, stack := range feeds[i] {
			alone.Add(200+id, stack)
		}
		got, _ := json.Marshal(s.ExportState())
		want, _ := json.Marshal(alone.ExportState())
		if string(got) != string(want) {
			t.Fatalf("set %d restored beside another holds what a set restored alone does not", i)
		}
	}
}

// TestSetStateRejectsCorrupt: malformed snapshots fail instead of
// silently building a broken set, and the error says which set it is.
func TestSetStateRejectsCorrupt(t *testing.T) {
	good := &SetState{Threshold: 1, Clusters: []ClusterState{{Representative: []string{"a"}, Members: []int{0}}}}
	for what, bad := range map[string]*SetState{
		"empty-member cluster": {Threshold: 1, Clusters: []ClusterState{
			{Representative: []string{"a"}, Members: nil},
		}},
		"duplicate representative": {Threshold: 1, Clusters: []ClusterState{
			{Representative: []string{"a"}, Members: []int{0}},
			{Representative: []string{"a"}, Members: []int{1}},
		}},
		"nil set": nil,
	} {
		if sets, i, err := NewSetsFromState(good, bad, good); err == nil || i != 1 || sets != nil {
			t.Fatalf("%s accepted as set %d of three (%v)", what, i, err)
		}
	}
}

// TestSetsRestoredTogetherShareKeys: the three sets of a decoded snapshot
// share its stacks — one slice per distinct stack — and restored in one
// call they share one rendered key per stack, in every set that holds it.
func TestSetsRestoredTogetherShareKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all, fail := NewSet(2), NewSet(2)
	for id := 0; id < 200; id++ {
		stack := randomStack(rng)
		all.Add(id, stack)
		if id%3 == 0 {
			fail.Add(id, stack)
		}
	}
	// What decodeSets hands over: each distinct stack one slice.
	interned := map[string][]string{}
	intern := func(stack []string) []string {
		k := stackKey(stack)
		if _, ok := interned[k]; !ok {
			interned[k] = slices.Clone(stack)
		}
		return interned[k]
	}
	var states []*SetState
	for _, set := range []*Set{all, fail, fail} {
		st := set.ExportState()
		for i := range st.Clusters {
			st.Clusters[i].Representative = intern(st.Clusters[i].Representative)
		}
		for i := range st.Stacks {
			st.Stacks[i] = intern(st.Stacks[i])
		}
		states = append(states, st)
	}
	sets, _, err := NewSetsFromState(states...)
	if err != nil {
		t.Fatal(err)
	}
	rendered := map[string]*byte{}
	shared := 0
	for i, s := range sets {
		keys := slices.Clone(s.logKeys)
		for k := range s.repByKey {
			keys = append(keys, k)
		}
		for _, k := range keys {
			at, ok := rendered[k]
			if !ok {
				rendered[k] = unsafe.StringData(k)
				continue
			}
			if at != unsafe.StringData(k) {
				t.Fatalf("set %d renders key %q again", i, k)
			}
			shared++
		}
	}
	if len(rendered) != len(interned) || shared == 0 {
		t.Fatalf("%d keys rendered for %d distinct stacks, %d uses shared", len(rendered), len(interned), shared)
	}
}

// TestExportMergesIntoTheColdOrder: an export sorts only the stacks
// logged since the last one and merges them in, and what it hands out is
// the order a set that never exported gives: after every batch of adds,
// and for a view taken before a later export.
func TestExportMergesIntoTheColdOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	warm := NewSet(1)
	var old *SetView
	for round := 0; round < 40; round++ {
		for k := rng.Intn(8); k >= 0; k-- {
			warm.Add(round, randomStack(rng))
		}
		if round == 10 {
			old = warm.View()
		}
		got := warm.ExportState()
		cold, err := newSetFromState(got)
		if err != nil {
			t.Fatal(err)
		}
		if want := cold.ExportState(); !slices.EqualFunc(got.Stacks, want.Stacks, slices.Equal) {
			t.Fatalf("round %d: the memory exports as %q, a set that never exported as %q", round, got.Stacks, want.Stacks)
		}
	}
	got := old.ExportState()
	cold, err := newSetFromState(got)
	if err != nil {
		t.Fatal(err)
	}
	if want := cold.ExportState(); len(got.Stacks) >= len(warm.ExportState().Stacks) || !slices.EqualFunc(got.Stacks, want.Stacks, slices.Equal) {
		t.Fatalf("a view older than the last export exports as %q, want %q", got.Stacks, want.Stacks)
	}
}
