package faultspace

import "strconv"

// Axis is one totally ordered dimension of a fault space. Attribute
// values are laid out in the order ≺ of the paper; an attribute index i
// refers to Value(i). Axes are immutable and may be shared between
// spaces.
//
// The interface exists so that axis *representation* is decoupled from
// axis *extent*: a categorical axis materializes its value set (SetAxis),
// while a numeric range axis formats values on demand (IntAxis) and costs
// O(1) memory no matter how wide the range is. That is what lets pair and
// detailed spaces reach billions of points (|Φ_MySQL| = 2,179,300 is the
// paper's idea of large; sharded deployments go far beyond) without
// materializing a single per-point string.
type Axis interface {
	// Name identifies the injector parameter this axis feeds, e.g.
	// "function", "errno", "callNumber", "testID".
	Name() string
	// Len returns the number of attribute values on the axis.
	Len() int
	// Value returns the i-th attribute value under ≺. It panics when i is
	// out of [0, Len()).
	Value(i int) string
	// Index returns the index of value v on the axis under ≺, or -1 if v
	// is not an attribute value of this axis.
	Index(v string) int
}

// slicer is the optional fast path of sliceAxis: concrete axes that can
// produce a contiguous sub-axis without a generic wrapper.
type slicer interface {
	slice(off, n int) Axis
}

// setAxis is a materialized categorical axis: an ordered value slice plus
// a map for O(1) Index (the seed's IndexOf was a linear scan).
type setAxis struct {
	name   string
	values []string
	index  map[string]int
}

// SetAxis builds a categorical axis from an explicit ordered value set.
func SetAxis(name string, values ...string) Axis {
	vals := append([]string(nil), values...)
	idx := make(map[string]int, len(vals))
	for i, v := range vals {
		if _, dup := idx[v]; !dup {
			idx[v] = i
		}
	}
	return &setAxis{name: name, values: vals, index: idx}
}

func (a *setAxis) Name() string       { return a.name }
func (a *setAxis) Len() int           { return len(a.values) }
func (a *setAxis) Value(i int) string { return a.values[i] }

func (a *setAxis) Index(v string) int {
	if i, ok := a.index[v]; ok {
		return i
	}
	return -1
}

func (a *setAxis) slice(off, n int) Axis {
	return SetAxis(a.name, a.values[off:off+n]...)
}

// intAxis is a lazy numeric axis spanning [lo, hi] inclusive: Value
// formats on demand, Index parses. Memory cost is O(1) for any range.
type intAxis struct {
	name   string
	lo, hi int
}

// IntAxis builds a numeric axis named name spanning [lo, hi] inclusive.
// The axis is lazy: no values are materialized, so a [0, 10^9] range
// costs the same memory as [0, 1].
func IntAxis(name string, lo, hi int) Axis {
	if hi < lo {
		lo, hi = hi, lo
	}
	return &intAxis{name: name, lo: lo, hi: hi}
}

func (a *intAxis) Name() string { return a.name }
func (a *intAxis) Len() int     { return a.hi - a.lo + 1 }

func (a *intAxis) Value(i int) string {
	if i < 0 || i >= a.Len() {
		panic("faultspace: axis value index out of range")
	}
	return strconv.Itoa(a.lo + i)
}

func (a *intAxis) Index(v string) int {
	if !canonicalInt(v) {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < a.lo || n > a.hi {
		return -1
	}
	return n - a.lo
}

func (a *intAxis) slice(off, n int) Axis {
	return &intAxis{name: a.name, lo: a.lo + off, hi: a.lo + off + n - 1}
}

// AppendValue appends a.Value(i) to dst: a numeric range axis appends
// its digits with no string in between, any other axis its Value.
func AppendValue(dst []byte, a Axis, i int) []byte {
	if n, ok := a.(*intAxis); ok && i >= 0 && i < n.Len() {
		return strconv.AppendInt(dst, int64(n.lo+i), 10)
	}
	return append(dst, a.Value(i)...) // out of range, Value panics
}

// canonicalInt rejects integer spellings Value would never produce
// ("007", "+1", "-0"), so Index stays the exact inverse of Value.
func canonicalInt(v string) bool {
	if v == "" {
		return false
	}
	digits := v
	if v[0] == '-' {
		if len(v) == 1 || v == "-0" {
			return false
		}
		digits = v[1:]
	}
	if len(digits) > 1 && digits[0] == '0' {
		return false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return false
		}
	}
	return true
}

// slicedAxis is the generic contiguous sub-axis wrapper, used for Axis
// implementations outside this package.
type slicedAxis struct {
	parent Axis
	off, n int
}

func (a *slicedAxis) Name() string       { return a.parent.Name() }
func (a *slicedAxis) Len() int           { return a.n }
func (a *slicedAxis) Value(i int) string { return a.parent.Value(a.off + i) }

func (a *slicedAxis) Index(v string) int {
	i := a.parent.Index(v)
	if i < a.off || i >= a.off+a.n {
		return -1
	}
	return i - a.off
}

// sliceAxis returns the sub-axis covering n values of a starting at
// offset off, preserving value order. n <= 0 yields an empty axis.
func sliceAxis(a Axis, off, n int) Axis {
	if n <= 0 {
		return SetAxis(a.Name())
	}
	if off == 0 && n == a.Len() {
		return a
	}
	if s, ok := a.(slicer); ok {
		return s.slice(off, n)
	}
	return &slicedAxis{parent: a, off: off, n: n}
}

// axisValues materializes an axis's values (used by ShuffleAxis, whose
// permutation argument is already O(len) anyway).
func axisValues(a Axis) []string {
	vals := make([]string, a.Len())
	for i := range vals {
		vals[i] = a.Value(i)
	}
	return vals
}
