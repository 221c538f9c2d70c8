package inject

import (
	"strings"
	"testing"

	"afex/internal/dsl"
	"afex/internal/libc"
)

func TestPlanEmpty(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Error("zero plan should be empty")
	}
	if !Single(Fault{Function: "read", CallNumber: 0}).Empty() {
		t.Error("callNumber 0 means no injection")
	}
	if Single(Fault{Function: "read", CallNumber: 1}).Empty() {
		t.Error("armed plan reported empty")
	}
}

func TestFaultAndPlanString(t *testing.T) {
	f := Fault{Function: "malloc", CallNumber: 23, Err: libc.ErrorReturn{Retval: 0, Errno: "ENOMEM"}}
	// Fig. 5's wire format.
	if got := f.String(); got != "function malloc errno ENOMEM retval 0 callNumber 23" {
		t.Errorf("Fault.String = %q", got)
	}
	p := Plan{Faults: []Fault{f, f}}
	if got := p.String(); !strings.Contains(got, "; ") {
		t.Errorf("multi-fault plan string = %q", got)
	}
}

func TestPointString(t *testing.T) {
	pt := Point{TestID: 5, Function: "read", CallNumber: 3}
	if got := pt.String(); got != "test=5 read@3" {
		t.Errorf("Point.String = %q", got)
	}
}

func TestPluginConvertBasics(t *testing.T) {
	var p Plugin
	pt, plan, err := p.Convert(dsl.Scenario{
		"testID": "7", "function": "read", "errno": "EINTR", "retval": "-1", "callNumber": "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.TestID != 7 || pt.Function != "read" || pt.CallNumber != 3 {
		t.Errorf("point = %+v", pt)
	}
	if len(plan.Faults) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	f := plan.Faults[0]
	if f.Err.Errno != "EINTR" || f.Err.Retval != -1 {
		t.Errorf("fault error = %+v", f.Err)
	}
}

func TestPluginConvertDefaultsFromProfile(t *testing.T) {
	var p Plugin
	_, plan, err := p.Convert(dsl.Scenario{"function": "malloc", "callNumber": "2"})
	if err != nil {
		t.Fatal(err)
	}
	f := plan.Faults[0]
	if f.Err.Errno != "ENOMEM" || f.Err.Retval != 0 {
		t.Errorf("malloc defaults = %+v, want NULL/ENOMEM from the fault profile", f.Err)
	}
}

func TestPluginConvertDefaultCallNumber(t *testing.T) {
	var p Plugin
	pt, _, err := p.Convert(dsl.Scenario{"function": "read"})
	if err != nil {
		t.Fatal(err)
	}
	if pt.CallNumber != 1 {
		t.Errorf("default callNumber = %d, want 1", pt.CallNumber)
	}
}

func TestPluginConvertRetValSpelling(t *testing.T) {
	// Fig. 4 spells it "retVal" in one subspace and "retval" in another.
	var p Plugin
	_, plan, err := p.Convert(dsl.Scenario{"function": "read", "retVal": "-1", "callNumber": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Faults[0].Err.Retval != -1 {
		t.Errorf("retVal spelling ignored: %+v", plan.Faults[0].Err)
	}
}

func TestPluginConvertUnknownErrnoKeepsRetval(t *testing.T) {
	var p Plugin
	_, plan, err := p.Convert(dsl.Scenario{"function": "read", "errno": "EWHATEVER", "callNumber": "1"})
	if err != nil {
		t.Fatal(err)
	}
	f := plan.Faults[0]
	if f.Err.Errno != "EWHATEVER" {
		t.Errorf("tester-supplied errno dropped: %+v", f.Err)
	}
	if f.Err.Retval != -1 {
		t.Errorf("profile retval not preserved: %+v", f.Err)
	}
}

func TestPluginConvertTwoFaultScenario(t *testing.T) {
	var p Plugin
	pt, plan, err := p.Convert(dsl.Scenario{
		"testID":   "3",
		"function": "read", "errno": "EINTR", "callNumber": "3",
		"function2": "malloc", "errno2": "ENOMEM", "callNumber2": "7",
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Function != "read" || pt.CallNumber != 3 {
		t.Errorf("primary point = %+v", pt)
	}
	if len(plan.Faults) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	second := plan.Faults[1]
	if second.Function != "malloc" || second.CallNumber != 7 || second.Err.Errno != "ENOMEM" {
		t.Errorf("secondary fault = %+v", second)
	}
}

func TestPluginConvertBadSecondSlot(t *testing.T) {
	var p Plugin
	if _, _, err := p.Convert(dsl.Scenario{
		"function": "read", "callNumber": "1",
		"function2": "bogus", "callNumber2": "1",
	}); err == nil {
		t.Error("unknown secondary function accepted")
	}
}

func TestPluginConvertErrors(t *testing.T) {
	var p Plugin
	cases := []dsl.Scenario{
		{"callNumber": "1"}, // missing function
		{"function": "not_a_function", "callNumber": "1"},      // unknown function
		{"function": "read", "callNumber": "many"},             // bad number
		{"function": "read", "callNumber": "1", "retval": "x"}, // bad retval
		{"function": "read", "testID": "NaN"},                  // bad testID
	}
	for _, sc := range cases {
		if _, _, err := p.Convert(sc); err == nil {
			t.Errorf("Convert(%v) succeeded, want error", sc)
		}
	}
}

// TestConvertValuesMatchesConvert: the slice-based scenario path must
// agree with the map path on every scenario shape, including two-fault
// scenarios and profile-defaulted fields.
func TestConvertValuesMatchesConvert(t *testing.T) {
	var p Plugin
	cases := []struct {
		names []string
		vals  []string
	}{
		{[]string{"testID", "function", "callNumber"}, []string{"3", "read", "2"}},
		{[]string{"function", "errno", "retval", "callNumber"}, []string{"malloc", "ENOMEM", "0", "7"}},
		{[]string{"testID", "function", "callNumber", "function2", "callNumber2"},
			[]string{"1", "read", "2", "malloc", "5"}},
		{[]string{"function"}, []string{"write"}}, // callNumber defaults to 1
	}
	for _, tc := range cases {
		sc := dsl.Scenario{}
		for i, n := range tc.names {
			sc[n] = tc.vals[i]
		}
		mp, mplan, merr := p.Convert(sc)
		vp, vplan, verr := p.ConvertValues(tc.names, tc.vals)
		if (merr == nil) != (verr == nil) {
			t.Fatalf("%v: errors disagree: %v vs %v", tc.names, merr, verr)
		}
		if mp != vp {
			t.Errorf("%v: points disagree: %+v vs %+v", tc.names, mp, vp)
		}
		if mplan.String() != vplan.String() {
			t.Errorf("%v: plans disagree: %q vs %q", tc.names, mplan, vplan)
		}
	}
	if _, _, err := p.ConvertValues([]string{"callNumber"}, []string{"1"}); err == nil {
		t.Error("missing function accepted by ConvertValues")
	}
}
