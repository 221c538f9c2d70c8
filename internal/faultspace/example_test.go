package faultspace_test

import (
	"fmt"

	"afex/internal/faultspace"
)

// ExampleDistance shows the Manhattan distance δ between faults — the
// metric D-vicinities are defined over.
func ExampleDistance() {
	a := faultspace.Fault{2, 5, 1} // <close, 5, -1> as attribute indices
	b := faultspace.Fault{2, 7, 0}
	fmt.Println(faultspace.Distance(a, b))
	// Output:
	// 3
}
