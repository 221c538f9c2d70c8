package inject

import (
	"strings"
	"testing"

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
	pt, plan, err := p.ConvertValues(
		[]string{"testID", "function", "errno", "retval", "callNumber"},
		[]string{"7", "read", "EINTR", "-1", "3"})
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
	_, plan, err := p.ConvertValues([]string{"function", "callNumber"}, []string{"malloc", "2"})
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
	pt, _, err := p.ConvertValues([]string{"function"}, []string{"read"})
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
	_, plan, err := p.ConvertValues([]string{"function", "retVal", "callNumber"}, []string{"read", "-1", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Faults[0].Err.Retval != -1 {
		t.Errorf("retVal spelling ignored: %+v", plan.Faults[0].Err)
	}
}

func TestPluginConvertUnknownErrnoKeepsRetval(t *testing.T) {
	var p Plugin
	_, plan, err := p.ConvertValues([]string{"function", "errno", "callNumber"}, []string{"read", "EWHATEVER", "1"})
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
	pt, plan, err := p.ConvertValues(
		[]string{"testID", "function", "errno", "callNumber", "function2", "errno2", "callNumber2"},
		[]string{"3", "read", "EINTR", "3", "malloc", "ENOMEM", "7"})
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

// TestConvertValuesAllocatesThePlan: a conversion allocates only the
// plan's fault slice, one- and two-fault scenarios alike; each slot is
// converted as a value.
func TestConvertValuesAllocatesThePlan(t *testing.T) {
	for _, c := range []struct{ names, vals []string }{
		{[]string{"testID", "function", "errno", "retval", "callNumber"}, []string{"7", "read", "EINTR", "-1", "3"}},
		{[]string{"testID", "function", "callNumber", "function2", "errno2", "callNumber2"}, []string{"3", "read", "3", "malloc", "ENOMEM", "7"}},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := (Plugin{}).ConvertValues(c.names, c.vals); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("converting %v allocates %v times, want 1 (the plan)", c.vals, n)
		}
	}
}

func TestPluginConvertBadSecondSlot(t *testing.T) {
	var p Plugin
	if _, _, err := p.ConvertValues(
		[]string{"function", "callNumber", "function2", "callNumber2"},
		[]string{"read", "1", "bogus", "1"}); err == nil {
		t.Error("unknown secondary function accepted")
	}
}

func TestPluginConvertErrors(t *testing.T) {
	var p Plugin
	cases := [][2][]string{
		{{"callNumber"}, {"1"}},                                    // missing function
		{{"function", "callNumber"}, {"not_a_function", "1"}},      // unknown function
		{{"function", "callNumber"}, {"read", "many"}},             // bad number
		{{"function", "callNumber", "retval"}, {"read", "1", "x"}}, // bad retval
		{{"function", "testID"}, {"read", "NaN"}},                  // bad testID
	}
	for _, sc := range cases {
		if _, _, err := p.ConvertValues(sc[0], sc[1]); err == nil {
			t.Errorf("ConvertValues(%v, %v) succeeded, want error", sc[0], sc[1])
		}
	}
}
