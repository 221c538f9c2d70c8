package faultspace

import "fmt"

// vicinity calls visit for every valid fault within Manhattan distance D
// of center (inclusive), center itself included. Enumeration is bounded by
// axis lengths and skips holes.
func vicinity(s *Space, center Fault, d int, visit func(Fault) bool) {
	f := center.Clone()
	var rec func(axis, budget int) bool
	rec = func(axis, budget int) bool {
		if axis == len(s.Axes) {
			if s.Hole == nil || !s.Hole(f) {
				return visit(f.Clone())
			}
			return true
		}
		lo := center[axis] - budget
		if lo < 0 {
			lo = 0
		}
		hi := center[axis] + budget
		if hi > s.Axes[axis].Len()-1 {
			hi = s.Axes[axis].Len() - 1
		}
		for v := lo; v <= hi; v++ {
			f[axis] = v
			used := v - center[axis]
			if used < 0 {
				used = -used
			}
			if !rec(axis+1, budget-used) {
				return false
			}
		}
		f[axis] = center[axis]
		return true
	}
	rec(0, d)
}

// linearDensity computes the relative linear density ρ_k(φ) of §2 along
// axis k, restricted to the D-vicinity of φ: the average impact of faults
// that differ from φ only on axis k (within the vicinity), scaled by the
// average impact of all faults in the vicinity. impact must be defined for
// every valid fault it is handed.
//
// ρ > 1 means walking along axis k from φ encounters more high-impact
// faults than walking in a random direction.
func linearDensity(s *Space, center Fault, k, d int, impact func(Fault) float64) float64 {
	var lineSum float64
	var lineN int
	f := center.Clone()
	lo := center[k] - d
	if lo < 0 {
		lo = 0
	}
	hi := center[k] + d
	if hi > s.Axes[k].Len()-1 {
		hi = s.Axes[k].Len() - 1
	}
	for v := lo; v <= hi; v++ {
		f[k] = v
		if s.Hole != nil && s.Hole(f) {
			continue
		}
		lineSum += impact(f)
		lineN++
	}
	var allSum float64
	var allN int
	vicinity(s, center, d, func(g Fault) bool {
		allSum += impact(g)
		allN++
		return true
	})
	if lineN == 0 || allN == 0 || allSum == 0 {
		return 0
	}
	return (lineSum / float64(lineN)) / (allSum / float64(allN))
}

// Example_linearDensity reproduces the §2 intuition: where impact
// forms a vertical stripe on the fault grid, the relative linear density
// along the stripe's axis exceeds 1 — "walking in the vertical direction
// is more likely to encounter faults that cause test errors than walking
// in the horizontal direction".
func Example_linearDensity() {
	grid := New("grid",
		IntAxis("function", 0, 9),
		IntAxis("test", 0, 9),
	)
	impact := func(f Fault) float64 {
		if f[0] == 3 { // all tests fail when function 3's call fails
			return 1
		}
		return 0
	}
	center := Fault{3, 5}
	vertical := linearDensity(grid, center, 1, 4, impact)
	horizontal := linearDensity(grid, center, 0, 4, impact)
	fmt.Printf("along the stripe: %.2f (>1)\n", vertical)
	fmt.Printf("across it:        %.2f\n", horizontal)
	// Output:
	// along the stripe: 4.44 (>1)
	// across it:        0.56
}
