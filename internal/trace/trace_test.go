package trace

import (
	"os"
	"strings"
	"testing"

	"afex/internal/dsl"
	"afex/internal/faultspace"
	"afex/internal/prog"
	"afex/internal/targets"
)

func traceProgram() *prog.Program {
	p := &prog.Program{
		Name: "traced",
		Routines: map[string]*prog.Routine{
			"a": {Name: "a", Module: "m", Ops: []prog.Op{
				{Func: "read", Repeat: 3, OnError: prog.Tolerate, Block: 1},
				{Func: "malloc", OnError: prog.Tolerate, Block: 2},
			}},
			"b": {Name: "b", Module: "m", Ops: []prog.Op{
				{Func: "read", OnError: prog.Tolerate, Block: 3},
				{Func: "write", OnError: prog.Tolerate, Block: 4},
			}},
		},
		TestSuite: []prog.Test{
			{Name: "t0", Script: []string{"a"}},
			{Name: "t1", Script: []string{"a", "b"}},
			{Name: "t2", Script: []string{"b"}},
		},
		NumBlocks: 4,
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func TestProfileCounts(t *testing.T) {
	sp := Profile(traceProgram())
	if sp.Tests != 3 || sp.FailedBaseline != 0 {
		t.Fatalf("profile header wrong: %+v", sp)
	}
	// read: t0 3, t1 4, t2 1 → total 8, max 4.
	if sp.TotalCalls["read"] != 8 {
		t.Errorf("total read = %d, want 8", sp.TotalCalls["read"])
	}
	if sp.MaxPerTest["read"] != 4 {
		t.Errorf("max read = %d, want 4", sp.MaxPerTest["read"])
	}
	if sp.TotalCalls["malloc"] != 2 || sp.TotalCalls["write"] != 2 {
		t.Errorf("totals = %v", sp.TotalCalls)
	}
	if sp.PerTest[0]["read"] != 3 || sp.PerTest[1]["read"] != 4 || sp.PerTest[2]["read"] != 1 {
		t.Errorf("per-test read counts = %v", sp.PerTest)
	}
	// All four blocks covered across the suite.
	if sp.Coverage != 1.0 {
		t.Errorf("coverage = %v, want 1.0", sp.Coverage)
	}
}

func TestTopFunctionsSelectionAndOrder(t *testing.T) {
	sp := Profile(traceProgram())
	top2 := sp.TopFunctions(2)
	if len(top2) != 2 {
		t.Fatalf("top2 = %v", top2)
	}
	// read (8) and malloc/write (2 each; malloc wins the alphabetical
	// tie) are selected; the result is ordered by the canonical class
	// order (memory before file), so malloc precedes read.
	if top2[0] != "malloc" || top2[1] != "read" {
		t.Errorf("top2 = %v, want [malloc read]", top2)
	}
	all := sp.TopFunctions(99)
	if len(all) != 3 {
		t.Errorf("requesting more than available should return all: %v", all)
	}
}

func TestDescribeFlat(t *testing.T) {
	sp := Profile(traceProgram())
	d := sp.Describe(Shape{Funcs: 3, CallLo: 0, CallHi: 4})
	if len(d.Spaces) != 1 {
		t.Fatalf("spaces = %d", len(d.Spaces))
	}
	params := d.Spaces[0].Params
	if params[0].Name != "testID" || params[0].Lo != 0 || params[0].Hi != 2 {
		t.Errorf("testID param = %+v", params[0])
	}
	if params[1].Name != "function" || len(params[1].Set) != 3 {
		t.Errorf("function param = %+v", params[1])
	}
	if params[2].Name != "callNumber" || params[2].Lo != 0 || params[2].Hi != 4 {
		t.Errorf("callNumber param = %+v", params[2])
	}
	if u := d.Build(); u.Size() != 3*3*5 {
		t.Errorf("space size = %d, want 45", u.Size())
	}
	// The description renders in the Fig. 3 language.
	text := d.String()
	if !strings.Contains(text, "testID : [ 0 , 2 ]") {
		t.Errorf("description text = %q", text)
	}
}

// TestShapeDefaults: a shape leaves open what DefaultShape fills, so a
// zero shape and the default one describe the same text.
func TestShapeDefaults(t *testing.T) {
	sp := Profile(traceProgram())
	want := sp.Describe(DefaultShape).String()
	for _, s := range []Shape{{}, {Funcs: -1, CallLo: 7, CallHi: 0}, {Funcs: 19, CallLo: 1, CallHi: 10}} {
		if got := sp.Describe(s).String(); got != want {
			t.Errorf("%+v describes\n%s\nwant\n%s", s, got, want)
		}
	}
	// A pair space ignores CallLo: both call axes start at 0.
	if a, b := sp.Describe(Shape{Pairs: true, CallLo: 3}).String(), sp.Describe(Shape{Pairs: true}).String(); a != b {
		t.Errorf("pair space depends on CallLo:\n%s\n%s", a, b)
	}
}

func TestDescribePairs(t *testing.T) {
	sp := Profile(traceProgram())
	u := sp.Describe(Shape{Funcs: 3, CallHi: 2, Pairs: true, ErrnoAxis: true}).Build()
	if len(u.Spaces) != 1 {
		t.Fatalf("pair space has %d subspaces", len(u.Spaces))
	}
	s := u.Spaces[0]
	if s.Dims() != 5 {
		t.Fatalf("pair space has %d axes, want 5", s.Dims())
	}
	names := []string{"testID", "function", "callNumber", "function2", "callNumber2"}
	for i, n := range names {
		if s.Axes[i].Name() != n {
			t.Errorf("axis %d = %q, want %q", i, s.Axes[i].Name(), n)
		}
	}
	// 3 tests × 3 funcs × 3 calls (0..2) × 3 funcs × 3 calls.
	if u.Size() != 3*3*3*3*3 {
		t.Errorf("pair space size = %d, want 243", u.Size())
	}
}

func TestDescribeErrnoAxis(t *testing.T) {
	sp := Profile(traceProgram())
	d := sp.Describe(Shape{Funcs: 3, CallLo: 1, CallHi: 2, ErrnoAxis: true})
	if len(d.Spaces) != 3 { // one subspace per function
		t.Fatalf("detailed description has %d subspaces, want 3", len(d.Spaces))
	}
	for _, sd := range d.Spaces {
		names := []string{"testID", "function", "errno", "retval", "callNumber"}
		if len(sd.Params) != len(names) {
			t.Fatalf("subspace %s params = %d", sd.Subtype, len(sd.Params))
		}
		for i, n := range names {
			if sd.Params[i].Name != n {
				t.Errorf("subspace %s param %d = %q, want %q", sd.Subtype, i, sd.Params[i].Name, n)
			}
		}
		if len(sd.Params[1].Set) != 1 {
			t.Errorf("subspace %s function axis = %v, want a single function", sd.Subtype, sd.Params[1].Set)
		}
	}
	// The rendered description must re-parse (negative retvals,
	// underscore identifiers are grammar extensions).
	if _, err := dsl.Parse(d.String()); err != nil {
		t.Errorf("detailed description does not re-parse: %v\n%s", err, d.String())
	}
	u := d.Build()
	if u.Size() == 0 {
		t.Fatal("detailed space empty")
	}
	// read has 3 errnos in its profile: per-function errno axes differ.
	var readSpace, mallocSpace int
	for i, s := range u.Spaces {
		switch s.Axes[1].Value(0) {
		case "read":
			readSpace = i
		case "malloc":
			mallocSpace = i
		}
	}
	if got := u.Spaces[readSpace].Axes[2].Len(); got != 3 {
		t.Errorf("read errno axis = %d values, want 3 (EIO, EINTR, EAGAIN)", got)
	}
	if got := u.Spaces[mallocSpace].Axes[2].Len(); got != 1 {
		t.Errorf("malloc errno axis = %d values, want 1 (ENOMEM)", got)
	}
}

// TestDescribeSignatures: for every built-in target and shape, the
// description's text parses back to a union with the signature of the
// union it builds, and that signature is the one pinned in
// testdata/signatures.golden (written by the builders Describe
// replaced), so existing state directories resume and journals do not
// move.
func TestDescribeSignatures(t *testing.T) {
	raw, err := os.ReadFile("testdata/signatures.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		golden[f[0]+" "+f[1]] = f[2]
	}
	shapes := map[string]Shape{
		"flat-19-1-10":  {Funcs: 19, CallLo: 1, CallHi: 10},
		"flat-19-0-2":   {Funcs: 19, CallLo: 0, CallHi: 2},
		"errno-19-1-10": {Funcs: 19, CallLo: 1, CallHi: 10, ErrnoAxis: true},
		"pairs-4-5":     {Funcs: 4, CallHi: 5, Pairs: true},
	}
	checked := 0
	for _, name := range targets.Names() {
		p, err := targets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sp := Profile(p)
		for shapeName, s := range shapes {
			key := name + " " + shapeName
			d := sp.Describe(s)
			parsed, err := dsl.Parse(d.String())
			if err != nil {
				t.Errorf("%s: the description does not parse: %v", key, err)
				continue
			}
			want := golden[key]
			if got := faultspace.Signature(parsed.Build()); got != want {
				t.Errorf("%s: parsed text has signature\n  %s\nwant\n  %s", key, got, want)
			}
			if got := faultspace.Signature(d.Build()); got != want {
				t.Errorf("%s: description builds signature\n  %s\nwant\n  %s", key, got, want)
			}
			checked++
		}
	}
	if checked != len(golden) {
		t.Errorf("checked %d target × shape pairs, the golden holds %d", checked, len(golden))
	}
}

func TestFaultProfileReport(t *testing.T) {
	r := FaultProfileReport([]string{"malloc", "no_such_fn"})
	if !strings.Contains(r, "malloc") || !strings.Contains(r, "ENOMEM") {
		t.Errorf("report lacks malloc profile: %q", r)
	}
	if !strings.Contains(r, "not provided") {
		t.Errorf("report lacks unknown-function note: %q", r)
	}
}

// FuzzDescribe: for any shape of any built-in target, the description's
// text parses back to a union with the signature of the union the
// description builds, unless the shape asks for what the language cannot
// say (a negative call number or an empty callNumber interval), which
// the parser refuses.
func FuzzDescribe(f *testing.F) {
	f.Add(uint8(0), 19, 1, 10, false, false)
	f.Add(uint8(1), 19, 0, 2, false, true)
	f.Add(uint8(3), 4, 0, 5, true, false)
	f.Add(uint8(4), 0, 9, 3, false, true)
	f.Add(uint8(2), 600, 1, 1<<40, true, true)
	names := targets.Names()
	profiles := map[string]*SuiteProfile{}
	f.Fuzz(func(t *testing.T, target uint8, funcs, lo, hi int, pairs, errno bool) {
		name := names[int(target)%len(names)]
		sp := profiles[name]
		if sp == nil {
			p, err := targets.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sp = Profile(p)
			profiles[name] = sp
		}
		s := Shape{Funcs: funcs, CallLo: lo, CallHi: hi, Pairs: pairs, ErrnoAxis: errno}
		d := sp.Describe(s)
		parsed, err := dsl.Parse(d.String())
		s = s.WithDefaults()
		sayable := s.Pairs || (s.CallLo >= 0 && s.CallLo <= s.CallHi)
		if err != nil {
			if sayable {
				t.Fatalf("%+v: %v\n%s", s, err, d.String())
			}
			return
		}
		if !sayable {
			t.Fatalf("%+v parsed:\n%s", s, d.String())
		}
		if a, b := faultspace.Signature(parsed.Build()), faultspace.Signature(d.Build()); a != b {
			t.Fatalf("%+v: parsed text has signature\n  %s\nthe description builds\n  %s", s, a, b)
		}
	})
}
