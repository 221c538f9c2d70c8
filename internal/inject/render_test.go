package inject_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"afex/internal/dsl"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/libc"
	"afex/internal/targets"
	"afex/internal/trace"
)

// The reference scenario path: the fault rendered as a values slice,
// joined into the Fig. 5 text, and converted by scanning the names for
// each key. Render and Form.Convert must match it byte for byte.

func referenceValuesFor(u *faultspace.Union, p faultspace.Point) []string {
	sp := u.Spaces[p.Sub]
	vals := make([]string, len(sp.Axes))
	for i, a := range sp.Axes {
		vals[i] = a.Value(p.Fault[i])
	}
	return vals
}

func referenceFormatPairs(names, vals []string) string {
	b := []byte{}
	for i := range names {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(append(append(b, names[i]...), ' '), vals[i]...)
	}
	return string(b)
}

type referenceScenario struct{ names, vals []string }

func (s referenceScenario) get(key string) string {
	for i, n := range s.names {
		if n == key {
			return s.vals[i]
		}
	}
	return ""
}

func referenceConvert(names, vals []string) (inject.Point, inject.Plan, error) {
	s := referenceScenario{names, vals}
	var pt inject.Point
	var err error
	if v := s.get("testID"); v != "" {
		pt.TestID, err = strconv.Atoi(v)
		if err != nil {
			return pt, inject.Plan{}, fmt.Errorf("inject: bad testID %q: %v", v, err)
		}
	}
	primary, ok, err := s.slot("")
	if err != nil {
		return pt, inject.Plan{}, err
	}
	if !ok {
		return pt, inject.Plan{}, fmt.Errorf("inject: scenario missing function")
	}
	pt.Function, pt.CallNumber = primary.Function, primary.CallNumber
	secondary, ok, err := s.slot("2")
	if err != nil {
		return pt, inject.Plan{}, err
	}
	if !ok {
		return pt, inject.Single(primary), nil
	}
	return pt, inject.Plan{Faults: []inject.Fault{primary, secondary}}, nil
}

func (s referenceScenario) slot(suffix string) (inject.Fault, bool, error) {
	fn := s.get("function" + suffix)
	if fn == "" {
		return inject.Fault{}, false, nil
	}
	prof := libc.Lookup(fn)
	if prof == nil {
		return inject.Fault{}, false, fmt.Errorf("inject: unknown library function %q", fn)
	}
	cn := s.get("callNumber" + suffix)
	if cn == "" {
		cn = "1"
	}
	callNumber, err := strconv.Atoi(cn)
	if err != nil {
		return inject.Fault{}, false, fmt.Errorf("inject: bad callNumber%s %q: %v", suffix, cn, err)
	}
	er := prof.Errors[0]
	if v := s.get("errno" + suffix); v != "" {
		found := false
		for _, e := range prof.Errors {
			if e.Errno == v {
				er, found = e, true
				break
			}
		}
		if !found {
			er = libc.ErrorReturn{Retval: er.Retval, Errno: v}
		}
	}
	rv := s.get("retval" + suffix)
	if rv == "" {
		rv = s.get("retVal" + suffix)
	}
	if rv != "" {
		er.Retval, err = strconv.Atoi(rv)
		if err != nil {
			return inject.Fault{}, false, fmt.Errorf("inject: bad retval%s %q: %v", suffix, rv, err)
		}
	}
	return inject.Fault{Function: fn, CallNumber: callNumber, Err: er}, true, nil
}

// equivalenceSpaces are the shapes a scenario takes: the flat
// evaluation space, Fig. 4's detailed one, the pair space with its
// callNumber 0, a description with set, point and range axes (an
// unknown function and errno among them), one shard of the pair space,
// and a space that repeats a key and spells one value badly.
func equivalenceSpaces(t *testing.T) []*faultspace.Union {
	prof := trace.Profile(targets.Mysqld())
	d, err := dsl.Parse(`
testID : [ 0 , 12 ] function : { read, malloc, frobnicate } errno : { EIO, ENOMEM, EWHATEVER }
retVal : { -1, 0 } callNumber : < 95 , 105 > ;
function : { write } callNumber : [ 0 , 3 ] function2 : { close, open } errno2 : { EINTR } retval2 : < 0 , 2 > callNumber2 : < 1 , 1000 > ;
`)
	if err != nil {
		t.Fatal(err)
	}
	repeated := faultspace.NewUnion(faultspace.New("repeated", faultspace.SetAxis("retval", "0", "x"),
		faultspace.SetAxis("function", "malloc"), faultspace.SetAxis("retval", "7"), faultspace.IntAxis("testID", 3, 4)))
	return []*faultspace.Union{
		prof.Describe(trace.Shape{Funcs: 19, CallLo: 1, CallHi: 100}).Build(),
		prof.Describe(trace.Shape{Funcs: 19, CallLo: 1, CallHi: 100, ErrnoAxis: true}).Build(),
		prof.Describe(trace.Shape{Funcs: 6, CallHi: 40, Pairs: true}).Build(),
		d.Build(),
		prof.Describe(trace.Shape{Funcs: 6, CallHi: 40, Pairs: true}).Build().Shard(3)[1],
		repeated,
	}
}

// TestRenderAndFormMatchTheReference: over every point shape, Render
// writes the reference text and values, and the point's Form converts
// its values to the reference point, plan and error.
func TestRenderAndFormMatchTheReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, u := range equivalenceSpaces(t) {
		for sub := range u.Spaces {
			names, sp := dsl.AxisNames(u, sub), u.Spaces[sub]
			form := inject.FormOf(names)
			for i := 0; i < 400; i++ {
				f := sp.Random(rng.Intn)
				if i == 0 { // the first point, holes notwithstanding
					f = make(faultspace.Fault, len(sp.Axes))
				}
				p := faultspace.Point{Sub: sub, Fault: f}
				wantVals := referenceValuesFor(u, p)
				vals := make([]string, len(names))
				if sc, want := dsl.Render(u, names, p, vals), referenceFormatPairs(names, wantVals); sc != want || !reflect.DeepEqual(vals, wantVals) {
					t.Fatalf("space %d %v: Render %q %q, want %q %q", name, p, sc, vals, want, wantVals)
				}
				pt, plan, err := form.Convert(vals)
				wpt, wplan, werr := referenceConvert(names, wantVals)
				if pt != wpt || !reflect.DeepEqual(plan, wplan) || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("space %d %q: Convert = %+v %+v %v, want %+v %+v %v", name, vals, pt, plan, err, wpt, wplan, werr)
				}
			}
		}
	}
}

// TestFormConvertAllocatesThePlan: converting through a resolved form
// allocates the plan's fault slice and nothing else.
func TestFormConvertAllocatesThePlan(t *testing.T) {
	for _, c := range []struct{ names, vals []string }{
		{[]string{"testID", "function", "errno", "retval", "callNumber"}, []string{"7", "read", "EINTR", "-1", "300"}},
		{[]string{"testID", "function", "callNumber", "function2", "errno2", "callNumber2"}, []string{"3", "read", "3", "malloc", "ENOMEM", "700"}},
	} {
		form := inject.FormOf(c.names)
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := form.Convert(c.vals); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("converting %v allocates %v times, want 1 (the plan)", c.vals, n)
		}
	}
}
