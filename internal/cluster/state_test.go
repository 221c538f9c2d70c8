package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

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
	clone, err := NewSetFromState(&st)
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

// TestRestoredSetsShareNothingWritable: NewSetFromState adopts the
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
		s, err := NewSetFromState(st)
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
// silently building a broken set.
func TestSetStateRejectsCorrupt(t *testing.T) {
	if _, err := NewSetFromState(&SetState{Threshold: 1, Clusters: []ClusterState{
		{Representative: []string{"a"}, Members: nil},
	}}); err == nil {
		t.Fatal("empty-member cluster accepted")
	}
	if _, err := NewSetFromState(&SetState{Threshold: 1, Clusters: []ClusterState{
		{Representative: []string{"a"}, Members: []int{0}},
		{Representative: []string{"a"}, Members: []int{1}},
	}}); err == nil {
		t.Fatal("duplicate representative accepted")
	}
}
