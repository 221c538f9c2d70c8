package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"afex/internal/cluster"
	"afex/internal/core"
	"afex/internal/explore"
)

// The sets encoder interns each stack once in a store's lifetime and
// hands out every snapshot's ids afresh, so what it writes for a state
// must not depend on the states it wrote before.

// everyState is a core.Store that keeps every snapshot it is handed.
type everyState struct {
	mu     sync.Mutex
	states []*core.SessionState
}

func (e *everyState) JournalRecord(explore.Candidate, core.Record) {}
func (e *everyState) SnapshotSession(st *core.SessionState) {
	e.mu.Lock()
	e.states = append(e.states, st)
	e.mu.Unlock()
}

// sessionStates runs a session to its end and returns every snapshot it
// delivered, the final one last.
func sessionStates(t *testing.T, cfg core.Config) []*core.SessionState {
	t.Helper()
	var all everyState
	cfg.Store, cfg.SnapshotEvery = &all, 40
	eng, err := core.NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunWith(eng.LocalExecutor())
	eng.Finish()
	if n := len(all.states); n < 3 || all.states[n-1].Seq != cfg.Iterations {
		t.Fatalf("session delivered %d snapshots, want several ending at seq %d", n, cfg.Iterations)
	}
	return all.states
}

// warmSets is a sets encoder that keeps what it interned across frames.
type warmSets struct {
	buf bytes.Buffer
	w   snapWriter
}

func (ws *warmSets) frame(sets [3]*cluster.SetState) []byte {
	ws.buf.Reset()
	if ws.w.bw == nil {
		ws.w.bw = bufio.NewWriter(&ws.buf)
	}
	ws.w.writeSets(sets)
	ws.w.bw.Flush()
	return ws.buf.Bytes()
}

func setsOf(st *core.SessionState) [3]*cluster.SetState {
	return [3]*cluster.SetState{st.AllStacks, st.FailClusters, st.CrashClusters}
}

// TestSnapshotWriterIsHistoryIndependent: a writer that has written a
// session's earlier snapshots writes each later one byte for byte as a
// fresh writer does, and its sets frame as the encoder before the store
// kept its interned stacks — over sequential, 2-worker and portfolio
// sessions, and over sets whose memory grows by stacks that sort before
// the older ones and whose representatives are equal in content to a
// remembered stack but not in storage; at the second, the writer's epoch
// wraps round to the first's.
func TestSnapshotWriterIsHistoryIndependent(t *testing.T) {
	check := func(t *testing.T, states []*core.SessionState) {
		var warm snapWriter
		for i, st := range states {
			if i == 1 {
				// The epoch wraps to the first snapshot's again.
				warm.sets.epoch = math.MaxUint32
			}
			var got, want bytes.Buffer
			if err := warm.write(&got, st, int64(i)); err != nil {
				t.Fatal(err)
			}
			var cold snapWriter
			if err := cold.write(&want, st, int64(i)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("snapshot %d (seq %d): a writer with %d snapshots behind it wrote other bytes than a fresh one", i, st.Seq, i)
			}
			if ref := referenceSetsFrame(setsOf(st)); !bytes.Contains(got.Bytes(), ref) {
				t.Fatalf("snapshot %d (seq %d): the sets frame is not the reference encoder's", i, st.Seq)
			}
		}
	}
	for _, tc := range []struct {
		algo            string
		shards, workers int
	}{{"fitness", 0, 1}, {"fitness", 0, 2}, {"portfolio", 3, 1}} {
		t.Run(fmt.Sprintf("%s/shards=%d/workers=%d", tc.algo, tc.shards, tc.workers), func(t *testing.T) {
			states := sessionStates(t, sessionConfig(tc.algo, tc.shards, tc.workers, 400))
			if last := states[len(states)-1]; len(last.FailClusters.Clusters) == 0 || len(last.CrashClusters.Clusters) == 0 {
				t.Fatal("session too empty to test the sets frame")
			}
			check(t, states)
		})
	}
	t.Run("growth", func(t *testing.T) {
		all, fail, crash := cluster.NewSet(1), cluster.NewSet(1), cluster.NewSet(0)
		var states []*core.SessionState
		snap := func() {
			states = append(states, &core.SessionState{Seq: len(states),
				AllStacks: all.ExportState(), FailClusters: fail.ExportState(), CrashClusters: crash.ExportState()})
		}
		// Each round's stacks sort before every earlier round's, and the
		// clusters get a copy of the remembered stack, not the stack.
		for round, id := 0, 0; round < 6; round++ {
			for k := 0; k < 3; k++ {
				stack := []string{"main", fmt.Sprintf("%c_%d", 'z'-round, k), "write"}
				all.Add(id, stack)
				fail.Add(id, slices.Clone(stack))
				if k == 0 {
					crash.Add(id, slices.Clone(stack))
				}
				id++
			}
			snap()
		}
		check(t, states)
	})
}

// TestUnchangedSetsFrameAllocatesNothing: encoding the sets of a state a
// second time finds every stack interned and every buffer grown, so it
// allocates nothing.
func TestUnchangedSetsFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	st := exportedState(t, sessionConfig("fitness", 0, 1, 400))
	var w snapWriter
	w.bw = bufio.NewWriter(io.Discard)
	w.writeSets(setsOf(st))
	if n := testing.AllocsPerRun(10, func() { w.writeSets(setsOf(st)) }); n != 0 {
		t.Fatalf("re-encoding the sets frame of an unchanged state allocates %v times", n)
	}
}

// FuzzSnapshotHistory: three cluster sets grow append-only between
// snapshots — stacks over a small frame alphabet, one stack's storage
// shared between sets or copied — and at every snapshot the sets frame a
// warm encoder writes is the one a fresh encoder writes, and the
// reference encoder's; the similarity memory comes out in the order a
// freshly restored set exports it in.
func FuzzSnapshotHistory(f *testing.F) {
	f.Add([]byte{0, 1, 2, 255, 9, 8, 7, 255, 3, 3, 3, 255})
	f.Add([]byte{200, 100, 50, 25, 255, 1, 2, 3, 4, 5, 6, 255, 0, 255, 17, 34, 51, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		sets := []*cluster.Set{cluster.NewSet(1), cluster.NewSet(1), cluster.NewSet(0)}
		frames := []string{"main", "a", "b", "c", "d", "e", "f", "g"}
		var warm warmSets
		var stacks [][]string
		for i, op := range ops {
			if op != 255 && i < len(ops)-1 {
				// Depth 0-3, frames from the alphabet; the low bits pick a
				// remembered stack to share when there is one.
				stack := make([]string, int(op>>6))
				for k := range stack {
					stack[k] = frames[(int(op)+k*int(ops[i+1]))%len(frames)]
				}
				if len(stacks) > 0 && op&7 == 7 {
					stack = stacks[int(ops[i+1])%len(stacks)]
				}
				stacks = append(stacks, stack)
				for s, set := range sets {
					if op>>s&1 == 1 || s == 0 {
						if op&8 == 0 {
							stack = slices.Clone(stack)
						}
						set.Add(i, stack)
					}
				}
				continue
			}
			var states [3]*cluster.SetState
			for s, set := range sets {
				states[s] = set.ExportState()
			}
			got := warm.frame(states)
			if want := setsFrameBytes(states); !bytes.Equal(got, want) {
				t.Fatalf("op %d: the warm encoder wrote\n%x\na fresh one\n%x", i, got, want)
			}
			if ref := referenceSetsFrame(states); !bytes.Equal(got, ref) {
				t.Fatalf("op %d: the warm encoder wrote\n%x\nthe reference\n%x", i, got, ref)
			}
			restored, _, err := cluster.NewSetsFromState(states[:]...)
			if err != nil {
				t.Fatal(err)
			}
			for s, set := range restored {
				if again := set.ExportState(); !reflect.DeepEqual(again.Stacks, states[s].Stacks) {
					t.Fatalf("op %d, set %d: the memory exports as %q, a restored set as %q", i, s, states[s].Stacks, again.Stacks)
				}
			}
		}
	})
}
