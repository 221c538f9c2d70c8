package inject

import (
	"reflect"
	"testing"

	"afex/internal/dsl"
	"afex/internal/faultspace"
)

// FuzzParseScenario: a scenario arrives from outside the process — `afex
// replay --scenario`, a journal's Scenario field — so whatever the input,
// parsing it and converting what parses never panics, and every scenario
// the parser accepts, as the point of a space whose axes hold its values,
// renders (dsl.Render) to one that parses back to the same names and
// values, the values Render hands back among them.
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		"testID 5 function read errno EIO retval -1 callNumber 3",
		"function malloc errno ENOMEM retval 0 callNumber 23",
		"function read callNumber 1 function2 malloc callNumber2 0",
		"function read retVal x",
		"testID 99999999999999999999 function read",
		"function nosuch callNumber 1",
		"a 1 a 2",
		"a 1 b",
		"",
		" \t\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		names, vals, err := dsl.ParseScenario(in)
		if err != nil {
			return
		}
		_, _, _ = Plugin{}.ConvertValues(names, vals)
		axes := make([]faultspace.Axis, len(names))
		for i := range names {
			axes[i] = faultspace.SetAxis(names[i], vals[i])
		}
		views := make([]string, len(names))
		wire := dsl.Render(faultspace.NewUnion(faultspace.New("", axes...)), names,
			faultspace.Point{Fault: make(faultspace.Fault, len(names))}, views)
		n2, v2, err := dsl.ParseScenario(wire)
		if err != nil {
			t.Fatalf("Render of an accepted scenario does not parse: %v\n%q", err, wire)
		}
		if !reflect.DeepEqual(n2, names) || !reflect.DeepEqual(v2, vals) || !reflect.DeepEqual(views, vals) {
			t.Fatalf("round trip of %q: %q %q (views %q), want %q %q", wire, n2, v2, views, names, vals)
		}
	})
}
