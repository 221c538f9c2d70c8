// Package faultspace models the fault hyperspaces of AFEX §2.
//
// A fault space Φ is spanned by N totally-ordered axes X1..XN; a fault φ is
// a vector of attribute indices <α1..αN> into those axes. The space may
// have holes (invalid parameter combinations) and may be a union of
// subspaces (the ";"-separated subspaces of the description language).
//
// Axes are behind the Axis interface (see axis.go): categorical axes
// materialize their values, numeric range axes are lazy, so a space's
// memory cost is O(axes), not O(points per axis). Sizes are computed in
// saturating int64 arithmetic so even astronomically large products are
// reported sanely, and Union.Shard partitions a space into disjoint
// regions for concurrent exploration (see shard.go).
//
// The package provides the geometry of §2: Manhattan distance δ (its
// tests walk D-vicinities and compute the relative linear density ρ).
package faultspace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Fault is a point in a fault space: a vector of attribute indices, one
// per axis. Fault values are small and copied freely.
type Fault []int

// Clone returns an independent copy of φ (the clone() of Algorithm 1
// line 10).
func (f Fault) Clone() Fault {
	c := make(Fault, len(f))
	copy(c, f)
	return c
}

// Equal reports whether two faults have identical attribute vectors.
func (f Fault) Equal(g Fault) bool {
	if len(f) != len(g) {
		return false
	}
	for i := range f {
		if f[i] != g[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string identity for use in History sets and
// deduplication maps. It is on the per-candidate hot path of every
// explorer, so it formats into a stack buffer instead of fmt.
func (f Fault) Key() string {
	var buf [64]byte
	return string(f.appendKey(buf[:0]))
}

func (f Fault) appendKey(b []byte) []byte {
	for i, v := range f {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// Space is a single fault hyperspace: the Cartesian product of its axes,
// minus any holes.
type Space struct {
	// Name labels the subspace (the optional "subtype" identifier of the
	// description language).
	Name string
	// Axes span the space. All faults in the space index into these.
	Axes []Axis
	// Hole, if non-nil, reports parameter combinations that are invalid
	// (e.g. close returning 1). Holes are skipped by enumeration and
	// rejected by Contains.
	Hole func(Fault) bool
}

// New constructs a Space from axes. The zero-value Hole (nil) means the
// space has no holes.
func New(name string, axes ...Axis) *Space {
	return &Space{Name: name, Axes: axes}
}

// Dims returns the number of axes.
func (s *Space) Dims() int { return len(s.Axes) }

// Size returns the number of points in the full Cartesian product,
// ignoring holes, in saturating int64 arithmetic: products beyond
// math.MaxInt64 report math.MaxInt64 instead of silently wrapping. The
// paper quotes sizes this way (e.g. |Φ_MySQL| = 2,179,300).
func (s *Space) Size() int64 {
	if len(s.Axes) == 0 {
		return 0
	}
	n := int64(1)
	for _, a := range s.Axes {
		n = satMul(n, int64(a.Len()))
	}
	return n
}

// satMul multiplies non-negative a and b, saturating at math.MaxInt64.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// Contains reports whether f is a valid point of the space: correct
// dimensionality, every index in range, and not a hole.
func (s *Space) Contains(f Fault) bool {
	if len(f) != len(s.Axes) {
		return false
	}
	for i, v := range f {
		if v < 0 || v >= s.Axes[i].Len() {
			return false
		}
	}
	if s.Hole != nil && s.Hole(f) {
		return false
	}
	return true
}

// Attr returns the attribute value of f on axis i (the human-readable
// injector parameter).
func (s *Space) Attr(f Fault, i int) string { return s.Axes[i].Value(f[i]) }

// Random returns a uniformly random valid fault, retrying past holes.
// intn must behave like rand.Intn. It panics if the space is empty or if
// 1000 consecutive draws hit holes (a degenerate Hole predicate).
func (s *Space) Random(intn func(int) int) Fault {
	if s.Size() == 0 {
		panic("faultspace: Random on empty space")
	}
	for tries := 0; tries < 1000; tries++ {
		f := make(Fault, len(s.Axes))
		for i, a := range s.Axes {
			f[i] = intn(a.Len())
		}
		if s.Hole == nil || !s.Hole(f) {
			return f
		}
	}
	panic("faultspace: Hole predicate rejects (nearly) all faults")
}

// Enumerate calls visit for every valid fault in the space, in
// lexicographic order of attribute indices. visit returning false stops
// enumeration early. This is the exhaustive-search iterator.
func (s *Space) Enumerate(visit func(Fault) bool) {
	if s.Size() == 0 {
		return
	}
	f := make(Fault, len(s.Axes))
	for ok := true; ok; ok = s.Step(f) {
		if (s.Hole == nil || !s.Hole(f)) && !visit(f.Clone()) {
			return
		}
	}
}

// Step moves f to the next fault after it in lexicographic order, holes
// included (an odometer increment), and reports false, f all zeros,
// after the last.
func (s *Space) Step(f Fault) bool {
	for i := len(f) - 1; i >= 0; i-- {
		if f[i]++; f[i] < s.Axes[i].Len() {
			return true
		}
		f[i] = 0
	}
	return false
}

// Distance returns the Manhattan (city-block) distance δ(f, g): the
// smallest number of attribute-index increments/decrements turning f into
// g (§2). Both faults must have the space's dimensionality.
func Distance(f, g Fault) int {
	d := 0
	for i := range f {
		if f[i] > g[i] {
			d += f[i] - g[i]
		} else {
			d += g[i] - f[i]
		}
	}
	return d
}

// ShuffleAxis returns a copy of the space with the values of axis k
// permuted by perm (perm[i] gives the new position of value i). This is
// the structure-destruction operation of the paper's §7.3 experiment:
// shuffling a dimension's values eliminates whatever structure that
// dimension had while preserving the space's size and contents.
//
// The shuffled axis is materialized (a permutation has no lazy form);
// the permutation argument is already O(len), so this adds no asymptotic
// cost. Unshuffled axes are shared with the original. Holes are remapped
// so the same logical faults remain invalid.
func (s *Space) ShuffleAxis(k int, perm []int) *Space {
	if len(perm) != s.Axes[k].Len() {
		panic("faultspace: ShuffleAxis permutation has wrong length")
	}
	out := &Space{Name: s.Name, Axes: make([]Axis, len(s.Axes))}
	copy(out.Axes, s.Axes)
	orig := axisValues(s.Axes[k])
	vals := make([]string, len(orig))
	for oldIdx, newIdx := range perm {
		vals[newIdx] = orig[oldIdx]
	}
	out.Axes[k] = SetAxis(s.Axes[k].Name(), vals...)
	if hole := s.Hole; hole != nil {
		// Map a shuffled fault back to original indices before asking the
		// original predicate.
		inv := make([]int, len(perm))
		for oldIdx, newIdx := range perm {
			inv[newIdx] = oldIdx
		}
		out.Hole = func(f Fault) bool {
			g := f.Clone()
			g[k] = inv[f[k]]
			return hole(g)
		}
	}
	return out
}

// Union is an ordered collection of subspaces, as produced by a
// description with multiple ";"-separated spaces. A point in a Union is
// addressed by (subspace index, Fault).
type Union struct {
	Spaces []*Space
}

// NewUnion builds a Union over the given subspaces.
func NewUnion(spaces ...*Space) *Union { return &Union{Spaces: spaces} }

// Size returns the total number of points across subspaces, saturating
// at math.MaxInt64.
func (u *Union) Size() int64 {
	n := int64(0)
	for _, s := range u.Spaces {
		sz := s.Size()
		if n > math.MaxInt64-sz {
			return math.MaxInt64
		}
		n += sz
	}
	return n
}

// Signature returns a stable structural digest of the union, used by the
// persistent exploration store to verify that a journal or snapshot
// written against one space is only ever resumed against a compatible
// one: same subspaces in the same order, same axis names and lengths,
// same values. Journal entries address faults by attribute *index*, so
// even a reordering of one axis's values would silently reinterpret
// every journaled coordinate — the signature therefore hashes axis
// values, not just endpoints.
//
// Lazy numeric range axes (IntAxis) are fully determined by their
// bounds and hash exactly in O(1). Every other axis hashes its complete
// value list — for materialized axes that is the memory already paid at
// construction. The one exception: a third-party lazy Axis
// implementation longer than 2^16 values falls back to endpoint +
// interior probes to keep the signature cheap; none exists in this
// module.
//
// The signature deliberately ignores Hole predicates (functions do not
// serialize); a resumed session with a different hole set still explores
// only valid points, because holes are re-checked at generation time.
func Signature(u *Union) string {
	var b strings.Builder
	for i, s := range u.Spaces {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(s.Name)
		b.WriteByte('(')
		for k, a := range s.Axes {
			if k > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s[%d:%x]", a.Name(), a.Len(), axisDigest(a))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// axisDigest is an FNV-1a hash over the axis's (index, value) pairs:
// exact O(1) bounds hash for lazy integer ranges, exhaustive for every
// other axis (probe-sampled only for third-party lazy axes past 2^16
// values, where exhaustion would defeat their laziness).
func axisDigest(a Axis) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(idx int, v string) {
		h ^= uint64(idx)
		h *= prime64
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= prime64
		}
		h ^= 0xff // value terminator, so ("ab","c") != ("a","bc")
		h *= prime64
	}
	if ia, ok := a.(*intAxis); ok {
		mix(-1, "int-range")
		mix(ia.lo, strconv.Itoa(ia.lo))
		mix(ia.hi, strconv.Itoa(ia.hi))
		return h
	}
	n := a.Len()
	if n <= 1<<16 {
		for i := 0; i < n; i++ {
			mix(i, a.Value(i))
		}
		return h
	}
	for _, i := range []int{0, 1, n / 3, n / 2, 2 * n / 3, n - 2, n - 1} {
		mix(i, a.Value(i))
	}
	return h
}

// Point identifies a fault within a Union.
type Point struct {
	Sub   int
	Fault Fault
}

// Key returns a unique string identity for the point.
func (p Point) Key() string {
	var buf [72]byte
	return string(p.AppendKey(buf[:0]))
}

// AppendKey appends the bytes of Key to b: the form for a caller that
// only probes a set with the key and keeps its own buffer.
func (p Point) AppendKey(b []byte) []byte {
	b = strconv.AppendInt(b, int64(p.Sub), 10)
	b = append(b, ':')
	return p.Fault.appendKey(b)
}

// Random draws a subspace with probability proportional to its size, then
// a uniform fault within it, so the union is sampled uniformly overall.
func (u *Union) Random(intn func(int) int) Point {
	total := u.Size()
	if total == 0 {
		panic("faultspace: Random on empty union")
	}
	x := int64(intn(capInt(total)))
	for i, s := range u.Spaces {
		if x < s.Size() {
			return Point{Sub: i, Fault: s.Random(intn)}
		}
		x -= s.Size()
	}
	panic("unreachable")
}

// capInt clamps an int64 to the platform int range (a no-op on 64-bit
// hosts; saturated sizes stay drawable on 32-bit ones).
func capInt(n int64) int {
	if n > int64(math.MaxInt) {
		return math.MaxInt
	}
	return int(n)
}

// Enumerate visits every valid point of every subspace in order.
func (u *Union) Enumerate(visit func(Point) bool) {
	for i, s := range u.Spaces {
		stop := false
		s.Enumerate(func(f Fault) bool {
			if !visit(Point{Sub: i, Fault: f}) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// RebasePoint translates a point of u onto the coordinates of parent,
// matching attribute values axis by axis (indices may differ between the
// two unions; values identify the fault). It returns ok == false when a
// value of p does not exist on the corresponding parent axis. Shard
// produces unions whose every point rebases onto the parent this way.
func (u *Union) RebasePoint(parent *Union, p Point) (Point, bool) {
	if p.Sub < 0 || p.Sub >= len(u.Spaces) || p.Sub >= len(parent.Spaces) {
		return Point{}, false
	}
	sp, pp := u.Spaces[p.Sub], parent.Spaces[p.Sub]
	if len(p.Fault) != len(sp.Axes) || len(sp.Axes) != len(pp.Axes) {
		return Point{}, false
	}
	f := make(Fault, len(p.Fault))
	for i, v := range p.Fault {
		if v < 0 || v >= sp.Axes[i].Len() {
			return Point{}, false
		}
		idx := pp.Axes[i].Index(sp.Axes[i].Value(v))
		if idx < 0 {
			return Point{}, false
		}
		f[i] = idx
	}
	return Point{Sub: p.Sub, Fault: f}, true
}
