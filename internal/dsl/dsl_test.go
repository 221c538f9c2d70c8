package dsl

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"afex/internal/faultspace"
)

// fig4 is the example fault space description from the paper's Fig. 4.
const fig4 = `
function : { malloc, calloc, realloc }
errno : { ENOMEM }
retval : { 0 }
callNumber : [ 1 , 100 ] ;

function : { read }
errno : { EINTR }
retVal : { -1 }
callNumber : [ 1 , 50 ] ;
`

func TestParseFig4(t *testing.T) {
	// The paper's Fig. 4 verbatim, including the negative retVal set
	// member and the two spellings of retval.
	d, err := Parse(fig4)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spaces) != 2 {
		t.Fatalf("got %d spaces, want 2", len(d.Spaces))
	}
	s0 := d.Spaces[0]
	if len(s0.Params) != 4 {
		t.Fatalf("space 0 has %d params, want 4", len(s0.Params))
	}
	if got := s0.Params[0].Set; len(got) != 3 || got[0] != "malloc" || got[2] != "realloc" {
		t.Errorf("function set = %v", got)
	}
	if p := s0.Params[3]; p.Name != "callNumber" || p.Lo != 1 || p.Hi != 100 || p.Kind != Point {
		t.Errorf("callNumber = %+v", p)
	}
	u := d.Build()
	if got := u.Spaces[0].Size(); got != 3*1*1*100 {
		t.Errorf("space 0 size = %d, want 300", got)
	}
	if got := u.Spaces[1].Size(); got != 1*1*1*50 {
		t.Errorf("space 1 size = %d, want 50", got)
	}
	if got := d.Spaces[1].Params[2].Set[0]; got != "-1" {
		t.Errorf("negative retVal member = %q, want -1", got)
	}
}

func TestParseUnderscoreIdentifiers(t *testing.T) {
	d, err := Parse(`function : { __xstat64, __IO_putc, _exit } ;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Spaces[0].Params[0].Set; got[0] != "__xstat64" || got[2] != "_exit" {
		t.Errorf("set = %v", got)
	}
}

// TestParseDottedIdentifiers: a "." may follow an identifier's first
// character, as in the subtype of a versioned target's profiled space;
// it may not start one.
func TestParseDottedIdentifiers(t *testing.T) {
	d, err := Parse(`mongo_v2.0_libcalls function : { read, v1.2 } ;`)
	if err != nil {
		t.Fatal(err)
	}
	if sp := d.Spaces[0]; sp.Subtype != "mongo_v2.0_libcalls" || sp.Params[0].Set[1] != "v1.2" {
		t.Errorf("space = %+v", sp)
	}
	if _, err := Parse(`function : { .read } ;`); err == nil {
		t.Error(`".read" parsed as an identifier`)
	}
}

func TestParseSubtype(t *testing.T) {
	d, err := Parse(`io_faults function : { read, write } callNumber : [1,3] ;`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Spaces[0].Subtype != "io_faults" {
		t.Errorf("subtype = %q", d.Spaces[0].Subtype)
	}
	u := d.Build()
	if u.Spaces[0].Name != "io_faults" {
		t.Errorf("built space name = %q", u.Spaces[0].Name)
	}
}

func TestParseRangeInterval(t *testing.T) {
	d, err := Parse(`delay : < 5 , 10 > ;`)
	if err != nil {
		t.Fatal(err)
	}
	if p := d.Spaces[0].Params[0]; p.Kind != Range || p.Lo != 5 || p.Hi != 10 {
		t.Errorf("range param = %+v", p)
	}
}

func TestParseComments(t *testing.T) {
	d, err := Parse("# leading comment\nfunction : { read } ; # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spaces) != 1 {
		t.Fatalf("got %d spaces", len(d.Spaces))
	}
}

func TestParseEmpty(t *testing.T) {
	d, err := Parse("   # only a comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spaces) != 0 {
		t.Errorf("empty input produced %d spaces", len(d.Spaces))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"function : ;",             // missing value
		"function : { } ;",         // empty set
		"function : { read ;",      // unterminated set
		"callNumber : [ 5 , 2 ] ;", // hi < lo
		"callNumber : [ 1 2 ] ;",   // missing comma
		"x : [1,2] x : [1,2] ;",    // duplicate parameter
		"sub1 sub2 x : [1,2] ;",    // duplicate subtype
		"; ",                       // empty space
		"function : ( read ) ;",    // bad bracket
		"123 : [1,2] ;",            // identifier must start with a letter
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("Parse(%q) returned %T, want *ParseError", in, err)
		}
	}
}

func TestParseErrorHasOffset(t *testing.T) {
	_, err := Parse("function : { read } callNumber : [ 9 , 2 ] ;")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("got %v", err)
	}
	if pe.Offset <= 0 || !strings.Contains(pe.Error(), "offset") {
		t.Errorf("ParseError lacks position info: %v", pe)
	}
}

func TestStringRoundTrip(t *testing.T) {
	in := `faults
function : { open, close }
callNumber : [ 1 , 9 ]
window : < 2 , 4 >
;
`
	d, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(d.String())
	if err != nil {
		t.Fatalf("re-parse of String() failed: %v\n%s", err, d.String())
	}
	if d2.String() != d.String() {
		t.Errorf("String round-trip not stable:\n%s\nvs\n%s", d.String(), d2.String())
	}
}

// TestDescriptionRoundTripProperty generates random descriptions and
// checks Parse ∘ String is the identity — the parsed space, including
// "< >" range axes, survives formatting and re-parsing structurally
// equal, and builds into a union of identical shape and values.
func TestDescriptionRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(spaces []uint8, seeds []uint16) bool {
		if len(spaces) == 0 {
			return true
		}
		if len(spaces) > 3 {
			spaces = spaces[:3]
		}
		si := 0
		next := func() int {
			if len(seeds) == 0 {
				return 0
			}
			v := int(seeds[si%len(seeds)])
			si++
			return v
		}
		d := &Description{}
		for sp, raw := range spaces {
			sd := SpaceDesc{}
			if raw%2 == 0 {
				sd.Subtype = "sub" + string(rune('a'+sp))
			}
			nParams := 1 + int(raw)%3
			for p := 0; p < nParams; p++ {
				name := "p" + string(rune('a'+p))
				switch next() % 3 {
				case 0:
					n := 1 + next()%3
					set := make([]string, n)
					for i := range set {
						set[i] = "v" + string(rune('a'+(next()%6))) + string(rune('a'+i))
					}
					sd.Params = append(sd.Params, Parameter{Name: name, Set: set})
				case 1:
					lo := next() % 50
					sd.Params = append(sd.Params, Parameter{Name: name, Lo: lo, Hi: lo + next()%100, Kind: Point})
				default:
					lo := next() % 50
					sd.Params = append(sd.Params, Parameter{Name: name, Lo: lo, Hi: lo + next()%100, Kind: Range})
				}
			}
			d.Spaces = append(d.Spaces, sd)
		}
		d2, err := Parse(d.String())
		if err != nil {
			t.Logf("re-parse failed: %v\n%s", err, d.String())
			return false
		}
		if !reflect.DeepEqual(d, d2) {
			t.Logf("round trip not structurally equal:\n%s", d.String())
			return false
		}
		// The built unions must agree axis by axis, value by value.
		u, u2 := d.Build(), d2.Build()
		if u.Size() != u2.Size() || len(u.Spaces) != len(u2.Spaces) {
			return false
		}
		for i := range u.Spaces {
			a, b := u.Spaces[i], u2.Spaces[i]
			if a.Name != b.Name || a.Dims() != b.Dims() {
				return false
			}
			for k := range a.Axes {
				if a.Axes[k].Name() != b.Axes[k].Name() || a.Axes[k].Len() != b.Axes[k].Len() {
					return false
				}
				for _, idx := range []int{0, a.Axes[k].Len() - 1} {
					if a.Axes[k].Value(idx) != b.Axes[k].Value(idx) {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAxisNamesAndRender(t *testing.T) {
	d, err := Parse(`testID : [0,9] function : { read, write } callNumber : [1,5] ;`)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Build()
	names := AxisNames(u, 0)
	if len(names) != 3 || names[0] != "testID" || names[2] != "callNumber" {
		t.Fatalf("AxisNames = %v", names)
	}
	pt := faultspace.Point{Sub: 0, Fault: faultspace.Fault{3, 1, 4}}
	vals := make([]string, 3)
	Render(u, names, pt, vals)
	if vals[0] != "3" || vals[1] != "write" || vals[2] != "5" {
		t.Fatalf("Render's values = %v", vals)
	}
}

// renderPairs renders parallel name/value slices as the point of a
// space whose axes each hold the one value.
func renderPairs(names, vals []string) string {
	axes := make([]faultspace.Axis, len(names))
	for i := range names {
		axes[i] = faultspace.SetAxis(names[i], vals[i])
	}
	u := faultspace.NewUnion(faultspace.New("", axes...))
	return Render(u, names, faultspace.Point{Fault: make(faultspace.Fault, len(names))}, make([]string, len(names)))
}

// TestRenderAllocatesTheText: the scenario text is Render's one
// allocation, its values views of it, however many axes the space has.
func TestRenderAllocatesTheText(t *testing.T) {
	d, err := Parse(`testID : [0,999] function : { read, write } callNumber : [1,500] ;`)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Build()
	names, vals := AxisNames(u, 0), make([]string, 3)
	pt := faultspace.Point{Sub: 0, Fault: faultspace.Fault{321, 1, 400}}
	if n := testing.AllocsPerRun(100, func() { Render(u, names, pt, vals) }); n != 1 {
		t.Errorf("Render allocates %v times, want 1", n)
	}
	var wide []faultspace.Axis
	var want []string
	for i := 0; i < 40; i++ {
		wide = append(wide, faultspace.IntAxis(fmt.Sprintf("axis%d", i), 1000, 2000))
		want = append(want, fmt.Sprintf("axis%d %d", i, 1000+i))
	}
	u = faultspace.NewUnion(faultspace.New("", wide...))
	names, vals = AxisNames(u, 0), make([]string, len(wide))
	pt = faultspace.Point{Fault: make(faultspace.Fault, len(wide))}
	for i := range pt.Fault {
		pt.Fault[i] = i
	}
	if sc := Render(u, names, pt, vals); sc != strings.Join(want, " ") || vals[39] != "1039" {
		t.Errorf("40 axes render %q, values %q", sc, vals)
	}
}

func TestBuildAxisOrderMatchesSource(t *testing.T) {
	d, err := Parse(`testID : [0,4] function : { a, b } callNumber : [1,2] ;`)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Build()
	axes := u.Spaces[0].Axes
	want := []string{"testID", "function", "callNumber"}
	for i, name := range want {
		if axes[i].Name() != name {
			t.Fatalf("axis %d = %q, want %q", i, axes[i].Name(), name)
		}
	}
}

func TestScenarioFormatParseRoundTrip(t *testing.T) {
	names := []string{"function", "errno", "retval", "callNumber"}
	vals := []string{"malloc", "ENOMEM", "0", "23"}
	wire := renderPairs(names, vals)
	if wire != "function malloc errno ENOMEM retval 0 callNumber 23" {
		t.Errorf("wire = %q", wire)
	}
	backNames, backVals, err := ParseScenario(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(backNames, names) || !reflect.DeepEqual(backVals, vals) {
		t.Errorf("round trip = %v %v, want %v %v", backNames, backVals, names, vals)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	if _, _, err := ParseScenario("a 1 b"); err == nil {
		t.Error("odd token count accepted")
	}
	if _, _, err := ParseScenario("a 1 a 2"); err == nil {
		t.Error("duplicate key accepted")
	}
}

func TestScenarioRoundTripProperty(t *testing.T) {
	letters := "abcdefghij"
	if err := quick.Check(func(keys []uint8, vals []uint8) bool {
		var names, values []string
		for i := 0; i < len(keys) && i < len(vals); i++ {
			k := "k" + string(letters[int(keys[i])%10])
			if slices.Contains(names, k) {
				continue
			}
			names, values = append(names, k), append(values, "v"+string(letters[int(vals[i])%10]))
		}
		if len(names) == 0 {
			return true
		}
		backNames, backVals, err := ParseScenario(renderPairs(names, values))
		return err == nil && reflect.DeepEqual(backNames, names) && reflect.DeepEqual(backVals, values)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParseNeverPanics feeds the parser arbitrary byte soup: whatever
// the input, it must return (possibly an error), never panic or hang.
func TestParseNeverPanics(t *testing.T) {
	alphabet := "ab_ {}[]<>:;,0123456789#\n\t" + `"'\` + "é"
	if err := quick.Check(func(raw []uint16) bool {
		b := make([]byte, 0, len(raw))
		for _, r := range raw {
			b = append(b, alphabet[int(r)%len(alphabet)])
		}
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Parse(%q) panicked: %v", b, p)
			}
		}()
		_, _ = Parse(string(b))
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseValidDescriptionsBuild checks that everything the parser
// accepts also Builds into a well-formed union.
func TestParseValidDescriptionsBuild(t *testing.T) {
	inputs := []string{
		`f : { a } ;`,
		`f : { a, b } g : [0,0] ;`,
		`sub f : < 1 , 1 > ;`,
		`f:{a};g:{b};`,
	}
	for _, in := range inputs {
		d, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		u := d.Build()
		if u.Size() == 0 {
			t.Errorf("Parse(%q) built an empty union", in)
		}
		u.Enumerate(func(p faultspace.Point) bool {
			if !u.Spaces[p.Sub].Contains(p.Fault) {
				t.Errorf("built union enumerates invalid point %v", p)
				return false
			}
			return true
		})
	}
}

// TestScenarioFor: the scenario of a point is its axis names and
// values in axis order, in the Fig. 5 wire format.
func TestScenarioFor(t *testing.T) {
	d, err := Parse(`testID : [0,9] function : { read, write } callNumber : [1,5] ;`)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Build()
	pt := faultspace.Point{Sub: 0, Fault: faultspace.Fault{3, 1, 4}}
	if sc := Render(u, AxisNames(u, 0), pt, make([]string, 3)); sc != "testID 3 function write callNumber 5" {
		t.Errorf("scenario = %q", sc)
	}
}
