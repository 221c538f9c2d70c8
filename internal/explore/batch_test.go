package explore

import (
	"encoding/json"
	"fmt"
	"testing"

	"afex/internal/faultspace"
)

// batchStacks is every registered strategy and its 3-shard form, each
// bare and behind the novelty filter with an empty and with a 30-key
// seen set (every eighth point of stateSpace): every stack a session
// leases from.
func batchStacks() map[string]func() Explorer {
	var every8th []string
	i := 0
	stateSpace().Enumerate(func(p faultspace.Point) bool {
		if i%8 == 0 {
			every8th = append(every8th, p.Key())
		}
		i++
		return true
	})
	seen := map[string]*KeySet{"novel(empty)/": NewKeySet(nil), "novel(30 seen)/": NewKeySet(every8th)}
	stacks := map[string]func() Explorer{}
	for _, name := range Strategies() {
		for _, shards := range []int{1, 3} {
			mk := func() Explorer { return newStrategy(name, shards) }
			label := name
			if shards > 1 {
				label = "sharded-" + name
			}
			stacks[label] = mk
			for prefix, keys := range seen {
				stacks[prefix+label] = func() Explorer { return NewNovel(mk(), keys) }
			}
		}
	}
	return stacks
}

// batchFeedback is the feedback a lease gets in these tests; a third of
// the points open a cluster, so the portfolio's reward sees both kinds.
func batchFeedback(cands []Candidate, clusters bool) []Feedback {
	fb := make([]Feedback, len(cands))
	for i, c := range cands {
		v := fakeImpact(c)
		fb[i] = Feedback{C: c, Impact: v, Fitness: v, NewCluster: clusters && c.Point.Fault[0]%3 == 0}
	}
	return fb
}

func sameCandidates(t *testing.T, round int, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round %d: leased %d, want %d", round, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() || got[i].MutatedAxis != want[i].MutatedAxis || got[i].ParentKey != want[i].ParentKey {
			t.Fatalf("round %d: candidate %d is %+v, want %+v", round, i, got[i], want[i])
		}
	}
}

func stateJSON(t *testing.T, ex Explorer) string {
	t.Helper()
	blob, err := json.Marshal(ex.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestBatchNextMatchesSequentialNext: a lease of k is exactly the k
// candidates k successive Next calls would have produced, round after
// round to exhaustion, through every stack.
func TestBatchNextMatchesSequentialNext(t *testing.T) {
	for name, mk := range batchStacks() {
		for _, k := range []int{4, 8, 16} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				seq, bat := mk(), mk()
				for round := 0; ; round++ {
					var want []Candidate
					for len(want) < k {
						c, ok := seq.Next()
						if !ok {
							break
						}
						want = append(want, c)
					}
					got := BatchNext(bat, k)
					sameCandidates(t, round, got, want)
					if len(got) == 0 {
						break
					}
					ReportBatch(seq, batchFeedback(want, true))
					ReportBatch(bat, batchFeedback(got, true))
				}
				if a, b := stateJSON(t, seq), stateJSON(t, bat); a != b {
					t.Fatalf("exported states differ:\n%s\n%s", a, b)
				}
			})
		}
	}
}

// TestReportBatchEquivalence: folding a lease through ReportBatch is
// folding it through one Report a candidate, in order.
func TestReportBatchEquivalence(t *testing.T) {
	for name, mk := range batchStacks() {
		for _, k := range []int{4, 8, 16} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				one, bat := mk(), mk()
				for round := 0; ; round++ {
					a, b := BatchNext(one, k), BatchNext(bat, k)
					sameCandidates(t, round, b, a)
					if len(a) == 0 {
						break
					}
					for _, f := range batchFeedback(a, false) {
						one.Report(f.C, f.Impact, f.Fitness)
					}
					ReportBatch(bat, batchFeedback(b, false))
					if one.Executed() != bat.Executed() || one.HistorySize() != bat.HistorySize() {
						t.Fatalf("round %d: batched report counts %d/%d, one at a time %d/%d",
							round, bat.Executed(), bat.HistorySize(), one.Executed(), one.HistorySize())
					}
					if sa, sb := stateJSON(t, one), stateJSON(t, bat); sa != sb {
						t.Fatalf("round %d: exported states differ:\n%s\n%s", round, sa, sb)
					}
				}
			})
		}
	}
}

func TestBatchNextExhaustiveCut(t *testing.T) {
	space := stateSpace()
	ex := NewExhaustive(space)
	total := 0
	for {
		got := ex.BatchNext(7)
		if len(got) == 0 {
			break
		}
		total += len(got)
	}
	if int64(total) != space.Size() {
		t.Errorf("batched enumeration covered %d points, want %d", total, space.Size())
	}
	if BatchNext(ex, 0) != nil {
		t.Error("BatchNext(0) should be nil")
	}
}
