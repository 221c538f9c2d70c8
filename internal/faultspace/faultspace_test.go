package faultspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testSpace() *Space {
	return New("t",
		SetAxis("function", "open", "close", "read", "write"),
		IntAxis("callNumber", 1, 5),
		IntAxis("testID", 0, 2),
	)
}

func TestAxisConstruction(t *testing.T) {
	a := IntAxis("n", 3, 7)
	if a.Len() != 5 || a.Value(0) != "3" || a.Value(4) != "7" {
		t.Errorf("IntAxis(3,7) = %v", axisValues(a))
	}
	rev := IntAxis("n", 7, 3)
	if rev.Len() != 5 || rev.Value(0) != "3" {
		t.Errorf("IntAxis should normalize reversed bounds, got %v", axisValues(rev))
	}
	s := SetAxis("f", "a", "b")
	if s.Index("b") != 1 || s.Index("zz") != -1 {
		t.Errorf("Index misbehaves: %v", axisValues(s))
	}
}

// TestIntAxisLazyRoundTrip checks the lazy integer axis is a faithful
// bijection between indices and decimal values, including huge ranges no
// materialized representation could hold.
func TestIntAxisLazyRoundTrip(t *testing.T) {
	a := IntAxis("call", -3, 1_000_000_000)
	if a.Len() != 1_000_000_004 {
		t.Fatalf("Len = %d", a.Len())
	}
	for _, i := range []int{0, 1, 3, 4, 999, 1_000_000_003} {
		v := a.Value(i)
		if got := a.Index(v); got != i {
			t.Errorf("Index(Value(%d)=%q) = %d", i, v, got)
		}
	}
	// Non-canonical spellings that Atoi would accept must not index.
	for _, bad := range []string{"", "007", "+1", "-0", "1e3", "2000000000", "x"} {
		if got := a.Index(bad); got != -1 {
			t.Errorf("Index(%q) = %d, want -1", bad, got)
		}
	}
}

// TestSizeSaturates checks that astronomically large products report
// math.MaxInt64 instead of wrapping.
func TestSizeSaturates(t *testing.T) {
	s := New("huge",
		IntAxis("a", 0, 1_000_000_000),
		IntAxis("b", 0, 1_000_000_000),
		IntAxis("c", 0, 1_000_000_000),
	)
	if s.Size() != math.MaxInt64 {
		t.Errorf("Size = %d, want MaxInt64 saturation", s.Size())
	}
	u := NewUnion(s, s)
	if u.Size() != math.MaxInt64 {
		t.Errorf("union Size = %d, want MaxInt64 saturation", u.Size())
	}
	// A large-but-representable space must report exactly.
	exact := New("big", IntAxis("a", 1, 100000), IntAxis("b", 1, 100000))
	if exact.Size() != 10_000_000_000 {
		t.Errorf("Size = %d, want 10^10", exact.Size())
	}
}

func TestFaultCloneEqualKey(t *testing.T) {
	f := Fault{1, 2, 3}
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal")
	}
	g[0] = 9
	if f[0] == 9 {
		t.Fatal("clone shares storage")
	}
	if f.Equal(g) || f.Equal(Fault{1, 2}) {
		t.Fatal("Equal false positives")
	}
	if f.Key() != "1,2,3" {
		t.Errorf("Key = %q", f.Key())
	}
}

func TestSpaceSizeAndContains(t *testing.T) {
	s := testSpace()
	if s.Size() != 4*5*3 {
		t.Fatalf("Size = %d, want 60", s.Size())
	}
	if !s.Contains(Fault{0, 0, 0}) || !s.Contains(Fault{3, 4, 2}) {
		t.Error("Contains rejects valid faults")
	}
	for _, bad := range []Fault{{4, 0, 0}, {0, 5, 0}, {0, 0, 3}, {-1, 0, 0}, {0, 0}, {0, 0, 0, 0}} {
		if s.Contains(bad) {
			t.Errorf("Contains accepts invalid fault %v", bad)
		}
	}
}

func TestHoles(t *testing.T) {
	s := testSpace()
	s.Hole = func(f Fault) bool { return f[0] == 1 } // all "close" faults invalid
	if s.Contains(Fault{1, 0, 0}) {
		t.Error("Contains ignores holes")
	}
	n := 0
	s.Enumerate(func(f Fault) bool {
		if f[0] == 1 {
			t.Fatalf("Enumerate visited hole %v", f)
		}
		n++
		return true
	})
	if n != 45 {
		t.Errorf("Enumerate visited %d faults, want 45", n)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if f := s.Random(rng.Intn); f[0] == 1 {
			t.Fatal("Random produced a hole")
		}
	}
}

func TestRandomDegenerateHolePanics(t *testing.T) {
	s := testSpace()
	s.Hole = func(Fault) bool { return true }
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-holes space")
		}
	}()
	rng := rand.New(rand.NewSource(1))
	s.Random(rng.Intn)
}

func TestEnumerateOrderAndEarlyStop(t *testing.T) {
	s := New("s", IntAxis("a", 0, 1), IntAxis("b", 0, 2))
	var got []string
	s.Enumerate(func(f Fault) bool {
		got = append(got, f.Key())
		return true
	})
	want := []string{"0,0", "0,1", "0,2", "1,0", "1,1", "1,2"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lexicographic order violated: got %v", got)
		}
	}
	n := 0
	s.Enumerate(func(Fault) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop executed %d visits, want 3", n)
	}
}

func TestAttr(t *testing.T) {
	s := testSpace()
	f := Fault{2, 4, 1}
	if s.Attr(f, 0) != "read" || s.Attr(f, 1) != "5" {
		t.Errorf("Attr wrong: %q %q", s.Attr(f, 0), s.Attr(f, 1))
	}
}

func TestDistanceProperties(t *testing.T) {
	if d := Distance(Fault{0, 0}, Fault{3, 4}); d != 7 {
		t.Errorf("Distance = %d, want 7", d)
	}
	cfg := &quick.Config{MaxCount: 500, Values: nil}
	if err := quick.Check(func(a0, a1, b0, b1, c0, c1 uint8) bool {
		a := Fault{int(a0), int(a1)}
		b := Fault{int(b0), int(b1)}
		c := Fault{int(c0), int(c1)}
		dab, dba := Distance(a, b), Distance(b, a)
		if dab != dba { // symmetry
			return false
		}
		if (dab == 0) != a.Equal(b) { // identity
			return false
		}
		return Distance(a, c) <= dab+Distance(b, c) // triangle
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestVicinityMatchesBruteForce(t *testing.T) {
	s := testSpace()
	center := Fault{1, 2, 1}
	for d := 0; d <= 4; d++ {
		want := map[string]bool{}
		s.Enumerate(func(f Fault) bool {
			if Distance(center, f) <= d {
				want[f.Key()] = true
			}
			return true
		})
		got := map[string]bool{}
		vicinity(s, center, d, func(f Fault) bool {
			if got[f.Key()] {
				t.Fatalf("Vicinity visited %v twice", f)
			}
			got[f.Key()] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("D=%d: vicinity has %d faults, brute force %d", d, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("D=%d: missing %s", d, k)
			}
		}
	}
}

func TestVicinityEarlyStop(t *testing.T) {
	s := testSpace()
	n := 0
	vicinity(s, Fault{1, 2, 1}, 3, func(Fault) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop visited %d, want 5", n)
	}
}

// TestLinearDensityStructured mirrors the §2 intuition: in a fault grid
// where impact forms a vertical stripe, the relative linear density along
// the vertical axis exceeds 1 and along the horizontal axis is below 1.
func TestLinearDensityStructured(t *testing.T) {
	s := New("grid", IntAxis("x", 0, 9), IntAxis("y", 0, 9))
	impact := func(f Fault) float64 {
		if f[0] == 4 { // x == 4 is a vertical high-impact stripe
			return 1
		}
		return 0
	}
	center := Fault{4, 5}
	vertical := linearDensity(s, center, 1, 3, impact)   // along y: stays on stripe
	horizontal := linearDensity(s, center, 0, 3, impact) // along x: leaves stripe
	if vertical <= 1 {
		t.Errorf("vertical density = %.2f, want > 1", vertical)
	}
	if horizontal >= vertical {
		t.Errorf("horizontal density %.2f should be below vertical %.2f", horizontal, vertical)
	}
}

func TestLinearDensityUniform(t *testing.T) {
	s := New("grid", IntAxis("x", 0, 9), IntAxis("y", 0, 9))
	impact := func(Fault) float64 { return 1 }
	if d := linearDensity(s, Fault{5, 5}, 0, 3, impact); d < 0.99 || d > 1.01 {
		t.Errorf("uniform impact density = %.3f, want 1", d)
	}
}

func TestShuffleAxisPreservesContent(t *testing.T) {
	s := testSpace()
	perm := []int{3, 0, 1, 2} // value i moves to perm[i]
	sh := s.ShuffleAxis(0, perm)
	if sh.Size() != s.Size() {
		t.Fatal("size changed")
	}
	// open (index 0) should now be at index 3.
	if sh.Axes[0].Value(3) != "open" || sh.Axes[0].Value(0) != "close" {
		t.Errorf("shuffled axis = %v", axisValues(sh.Axes[0]))
	}
	// Same multiset of values.
	for _, v := range axisValues(s.Axes[0]) {
		if sh.Axes[0].Index(v) == -1 {
			t.Errorf("value %q lost in shuffle", v)
		}
	}
	// Original untouched.
	if s.Axes[0].Value(0) != "open" {
		t.Error("ShuffleAxis mutated the original space")
	}
}

func TestShuffleAxisRemapsHoles(t *testing.T) {
	s := testSpace()
	s.Hole = func(f Fault) bool { return f[0] == 0 } // "open" faults invalid
	perm := []int{3, 0, 1, 2}
	sh := s.ShuffleAxis(0, perm)
	// "open" is now index 3; holes must follow the value, not the index.
	if !sh.Hole(Fault{3, 0, 0}) {
		t.Error("hole did not follow the shuffled value")
	}
	if sh.Hole(Fault{0, 0, 0}) {
		t.Error("hole stayed at the old index")
	}
}

func TestShuffleAxisBadPermPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-length permutation")
		}
	}()
	testSpace().ShuffleAxis(0, []int{0, 1})
}

func TestUnionSizeRandomEnumerate(t *testing.T) {
	u := NewUnion(
		New("a", IntAxis("x", 0, 4)),                     // 5 points
		New("b", IntAxis("x", 0, 1), IntAxis("y", 0, 2)), // 6 points
	)
	if u.Size() != 11 {
		t.Fatalf("union size = %d, want 11", u.Size())
	}
	seen := map[string]bool{}
	u.Enumerate(func(p Point) bool {
		if seen[p.Key()] {
			t.Fatalf("duplicate point %s", p.Key())
		}
		seen[p.Key()] = true
		return true
	})
	if len(seen) != 11 {
		t.Fatalf("enumerated %d points, want 11", len(seen))
	}
	// Random sampling must reach both subspaces roughly proportionally.
	rng := rand.New(rand.NewSource(5))
	counts := [2]int{}
	for i := 0; i < 11000; i++ {
		counts[u.Random(rng.Intn).Sub]++
	}
	if counts[0] < 3500 || counts[0] > 6500 {
		t.Errorf("subspace 0 drawn %d/11000 times, want ≈5000", counts[0])
	}
}

func TestUnionEnumerateEarlyStop(t *testing.T) {
	u := NewUnion(New("a", IntAxis("x", 0, 4)), New("b", IntAxis("x", 0, 4)))
	n := 0
	u.Enumerate(func(Point) bool { n++; return n < 7 })
	if n != 7 {
		t.Errorf("early stop visited %d, want 7", n)
	}
}

func TestPointKeyDistinguishesSubspaces(t *testing.T) {
	a := Point{Sub: 0, Fault: Fault{1, 2}}
	b := Point{Sub: 1, Fault: Fault{1, 2}}
	if a.Key() == b.Key() {
		t.Error("points in different subspaces share a key")
	}
}

// TestSignatureDetectsValueChanges: journal entries address faults by
// attribute index, so the store's compatibility signature must change
// when axis values change — including interior-only reorderings that
// keep name, length and endpoints identical.
func TestSignatureDetectsValueChanges(t *testing.T) {
	sig := func(vals ...string) string {
		return Signature(NewUnion(New("s", SetAxis("function", vals...), IntAxis("call", 1, 9))))
	}
	a := sig("open", "read", "write", "close")
	if a != sig("open", "read", "write", "close") {
		t.Fatal("signature not deterministic")
	}
	if a == sig("open", "write", "read", "close") {
		t.Fatal("interior value reordering not detected")
	}
	if a == sig("open", "read", "write") {
		t.Fatal("length change not detected")
	}
	big := func(hi int) string {
		return Signature(NewUnion(New("s", IntAxis("call", 0, hi))))
	}
	if big(1_000_000) == big(2_000_000) {
		t.Fatal("large-axis range change not detected")
	}
	if big(1_000_000) != big(1_000_000) {
		t.Fatal("large-axis signature not deterministic")
	}
}
