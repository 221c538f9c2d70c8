package explore

import (
	"runtime"
	"testing"

	"afex/internal/faultspace"
)

// cursorSpace is a union of several subspaces: one with holes at its
// first and last points and in its middle, one empty, one whose every
// point is a hole, and one plain.
func cursorSpace() *faultspace.Union {
	holes := faultspace.New("holes",
		faultspace.SetAxis("function", "read", "write", "close"),
		faultspace.IntAxis("callNumber", 0, 4))
	holes.Hole = func(f faultspace.Fault) bool {
		return (f[0]+f[1])%3 == 0 || (f[0] == 2 && f[1] == 4)
	}
	allHoles := faultspace.New("all", faultspace.IntAxis("x", 0, 3))
	allHoles.Hole = func(faultspace.Fault) bool { return true }
	return faultspace.NewUnion(
		holes,
		faultspace.New("empty", faultspace.SetAxis("function")),
		allHoles,
		faultspace.New("plain", faultspace.IntAxis("testID", 7, 9), faultspace.SetAxis("errno", "EIO", "EINTR")),
	)
}

func enumerated(u *faultspace.Union) []faultspace.Point {
	var pts []faultspace.Point
	u.Enumerate(func(p faultspace.Point) bool {
		pts = append(pts, p)
		return true
	})
	return pts
}

// TestExhaustiveFollowsEnumerate: the cursor hands out exactly
// Union.Enumerate's points in its order, holes and empty subspaces
// skipped, one at a time or cut into batches.
func TestExhaustiveFollowsEnumerate(t *testing.T) {
	for _, u := range []*faultspace.Union{cursorSpace(), stateSpace(), faultspace.NewUnion()} {
		want := enumerated(u)
		for _, batch := range []int{1, 3, 64} {
			e := NewExhaustive(u)
			var got []faultspace.Point
			for cut := e.BatchNext(batch); len(cut) > 0; cut = e.BatchNext(batch) {
				if len(cut) > batch {
					t.Fatalf("BatchNext(%d) cut %d", batch, len(cut))
				}
				for _, c := range cut {
					got = append(got, c.Point)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("batch %d: %d points, want %d", batch, len(got), len(want))
			}
			for i := range want {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("batch %d: point %d is %s, want %s", batch, i, got[i].Key(), want[i].Key())
				}
			}
			if e.HistorySize() != len(want) {
				t.Errorf("HistorySize %d, want %d", e.HistorySize(), len(want))
			}
			if _, ok := e.Next(); ok {
				t.Error("Next after the end handed out a point")
			}
		}
	}
}

// TestExhaustiveImportWalksToTheCursor: a state recorded at cursor k
// imports to an explorer whose next point is point k; a cursor past the
// end or below zero is refused and leaves the explorer as it was.
func TestExhaustiveImportWalksToTheCursor(t *testing.T) {
	u := cursorSpace()
	want := enumerated(u)
	for k := 0; k <= len(want); k++ {
		e := NewExhaustive(u)
		st := &State{Algorithm: "exhaustive", Searches: []SearchState{{Cursor: k, Executed: k + 1}}}
		if err := e.ImportState(st); err != nil {
			t.Fatalf("cursor %d: %v", k, err)
		}
		if e.Executed() != k+1 || e.ExportState().Searches[0].Cursor != k {
			t.Fatalf("cursor %d: executed %d, exported %+v", k, e.Executed(), e.ExportState())
		}
		c, ok := e.Next()
		if k == len(want) {
			if ok {
				t.Fatalf("cursor at the end handed out %s", c.Key())
			}
			continue
		}
		if !ok || c.Key() != want[k].Key() {
			t.Fatalf("cursor %d: next %s (%v), want %s", k, c.Key(), ok, want[k].Key())
		}
	}
	for _, k := range []int{-1, len(want) + 1, 1 << 40} {
		e := NewExhaustive(u)
		e.Next()
		st := &State{Algorithm: "exhaustive", Searches: []SearchState{{Cursor: k}}}
		if err := e.ImportState(st); err == nil {
			t.Errorf("cursor %d of %d points imported", k, len(want))
		}
		if c, _ := e.Next(); c.Key() != want[1].Key() {
			t.Errorf("a refused import moved the cursor to %s", c.Key())
		}
	}
}

var exhaustiveSink *Exhaustive

// TestExhaustiveConstructionIsConstantMemory: an exhaustive explorer
// over a 2^16-point space allocates its cursor, not the space.
func TestExhaustiveConstructionIsConstantMemory(t *testing.T) {
	u := faultspace.NewUnion(faultspace.New("wide",
		faultspace.IntAxis("testID", 0, 255), faultspace.IntAxis("callNumber", 1, 256)))
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		exhaustiveSink = NewExhaustive(u)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4096 {
		t.Errorf("NewExhaustive over %d points allocates %d B, want under 4 KB", u.Size(), per)
	}
}
