package dsl

import (
	"reflect"
	"testing"
)

// FuzzParse: a fault space description is text from outside the
// process (a file, a submitted session's "space"). Whatever it is,
// Parse must not panic, and a description it accepts must print to
// text that parses back to the same description and prints the same:
// Parse → String → Parse is a fixed point.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		fig4,
		"",
		"# only a comment\n",
		"faults function : { open, close } callNumber : [ 1 , 9 ] window : < 2 , 4 > ;",
		"retval : { -1, 007, x_1 } ;",
		"a ; b c : [ 0 , 0 ] ;",
		"p : [ 9 , 1 ] ;",
		"p : { } ;",
		"p : { -9223372036854775808 } ;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		d, err := Parse(in)
		if err != nil {
			return
		}
		out := d.String()
		d2, err := Parse(out)
		if err != nil {
			t.Fatalf("String of an accepted description does not parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("Parse(String(d)) != d:\n%#v\n%#v", d, d2)
		}
		if again := d2.String(); again != out {
			t.Fatalf("String is not stable:\n%s\nvs\n%s", out, again)
		}
	})
}
