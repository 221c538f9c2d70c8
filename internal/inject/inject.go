// Package inject is the library-level fault injector of this repository —
// the stand-in for LFI. It turns abstract fault descriptions (package dsl
// scenarios, or points in a faultspace) into injection plans that the
// program model's interpreter (prog.Run) arms and consults on every
// simulated libc call: each fault fires at most once, at the callNumber-th
// call to its function, the first match in plan order winning.
//
// An injection point is the tuple ⟨testID, functionName, callNumber⟩ (§4
// "Injection Point Precision"): testID selects one execution path (a test
// from the target's suite), functionName the library call to fail, and
// callNumber the cardinality of the call to that function that should
// fail. The injector itself handles the ⟨functionName, callNumber⟩ part;
// testID is consumed by the node manager when it picks which test to run.
package inject

import (
	"fmt"
	"slices"
	"strconv"

	"afex/internal/libc"
)

// Fault is one atomic fault to inject: fail the callNumber-th call to
// Function with the given error return. CallNumber 0 means "do not
// inject" — the paper's coreutils fault space explicitly includes 0 on
// the callNumber axis as the no-injection point.
type Fault struct {
	Function   string
	CallNumber int
	Err        libc.ErrorReturn
}

// String renders the fault in the Fig. 5 scenario style.
func (f Fault) String() string {
	return fmt.Sprintf("function %s errno %s retval %d callNumber %d",
		f.Function, f.Err.Errno, f.Err.Retval, f.CallNumber)
}

// Plan is a set of atomic faults armed for one execution. AFEX scenarios
// may combine several faults ("inject an EINTR in the third read and an
// ENOMEM in the seventh malloc", §6); the evaluation uses single-fault
// plans but the machinery is multi-fault.
type Plan struct {
	Faults []Fault
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	for _, f := range p.Faults {
		if f.CallNumber > 0 && f.Function != "" {
			return false
		}
	}
	return true
}

// Single returns a plan containing exactly one fault.
func Single(f Fault) Plan { return Plan{Faults: []Fault{f}} }

// String renders the plan as ";"-joined scenario lines.
func (p Plan) String() string {
	s := ""
	for i, f := range p.Faults {
		if i > 0 {
			s += "; "
		}
		s += f.String()
	}
	return s
}

// Point is a fully qualified injection point: the ⟨testID, function,
// callNumber⟩ tuple used throughout the evaluation.
type Point struct {
	TestID     int
	Function   string
	CallNumber int
}

// String renders the point for logs and cluster labels.
func (p Point) String() string {
	return fmt.Sprintf("test=%d %s@%d", p.TestID, p.Function, p.CallNumber)
}

// Plugin converts scenarios — parallel name/value slices in axis order
// (dsl.AxisNames / dsl.Render, or dsl.ParseScenario of a recorded one) —
// into concrete injector configuration. This mirrors the node manager
// plugins of §6: "each plugin adapts a subspace of the fault space to the
// particulars of its associated injector". The scenario keys recognized
// are: testID, function, errno, retval/retVal, callNumber — plus
// function2/errno2/retval2/callNumber2 for two-fault scenarios ("inject
// an EINTR error in the third read socket call, and an ENOMEM error in
// the seventh malloc call", §6). A callNumber of 0 encodes "this slot
// injects nothing", so pair spaces can include single-fault points.
type Plugin struct{}

// ConvertValues builds an injection point and plan from a scenario: it
// is FormOf(names).Convert(vals). Callers converting many scenarios of
// one subspace resolve its Form once.
func (Plugin) ConvertValues(names, vals []string) (Point, Plan, error) {
	return FormOf(names).Convert(vals)
}

// Form is a scenario key layout: for each key the plugin reads, its
// index among a subspace's axis names (the first, if a name repeats;
// -1 when absent).
type Form struct {
	testID int
	slots  [2]slotForm // the primary fault's keys, then the "2"-suffixed
}

type slotForm struct{ function, callNumber, errno, retval, retVal int }

// FormOf resolves the key layout of names.
func FormOf(names []string) Form {
	f := Form{testID: slices.Index(names, "testID")}
	for k, suffix := range [2]string{"", "2"} {
		at := func(key string) int { return slices.Index(names, key+suffix) }
		f.slots[k] = slotForm{at("function"), at("callNumber"), at("errno"), at("retval"), at("retVal")}
	}
	return f
}

// Convert builds an injection point and plan from a scenario's values,
// laid out as f. Missing errno/retval fields are filled from the
// function's fault profile (its first error return), matching how a
// tester would default them. An unknown function or malformed number is
// an error: the fault space description disagrees with the injector's
// capabilities.
//
// The returned Point describes the primary fault; the Plan carries every
// fault of a multi-fault scenario.
func (f Form) Convert(vals []string) (Point, Plan, error) {
	var pt Point
	var err error
	if v := value(vals, f.testID); v != "" {
		pt.TestID, err = strconv.Atoi(v)
		if err != nil {
			return pt, Plan{}, fmt.Errorf("inject: bad testID %q: %v", v, err)
		}
	}
	primary, ok, err := f.slots[0].convert(vals, "")
	if err != nil {
		return pt, Plan{}, err
	}
	if !ok {
		return pt, Plan{}, fmt.Errorf("inject: scenario missing function")
	}
	pt.Function = primary.Function
	pt.CallNumber = primary.CallNumber
	secondary, ok, err := f.slots[1].convert(vals, "2")
	if err != nil {
		return pt, Plan{}, err
	}
	if !ok {
		return pt, Single(primary), nil
	}
	return pt, Plan{Faults: []Fault{primary, secondary}}, nil
}

// value returns vals[i], "" for an absent key (i < 0) — no axis value is
// ever the empty string, so the two are equivalent.
func value(vals []string, i int) string {
	if i < 0 {
		return ""
	}
	return vals[i]
}

// convert converts one fault slot of a scenario; suffix "" is the
// primary fault, "2" the secondary. A missing function means the slot is
// absent (not ok); a callNumber of 0 arms nothing but is still a valid
// description (the no-injection point of spaces that include one).
func (s slotForm) convert(vals []string, suffix string) (Fault, bool, error) {
	fn := value(vals, s.function)
	if fn == "" {
		return Fault{}, false, nil
	}
	prof := libc.Lookup(fn)
	if prof == nil {
		return Fault{}, false, fmt.Errorf("inject: unknown library function %q", fn)
	}
	cn := value(vals, s.callNumber)
	if cn == "" {
		cn = "1"
	}
	callNumber, err := strconv.Atoi(cn)
	if err != nil {
		return Fault{}, false, fmt.Errorf("inject: bad callNumber%s %q: %v", suffix, cn, err)
	}
	er := prof.Errors[0]
	if v := value(vals, s.errno); v != "" {
		found := false
		for _, e := range prof.Errors {
			if e.Errno == v {
				er = e
				found = true
				break
			}
		}
		if !found {
			// Allow an errno outside the profile but keep the profile's
			// retval: the tester may know better than the analyzer.
			er = libc.ErrorReturn{Retval: er.Retval, Errno: v}
		}
	}
	rv := value(vals, s.retval)
	if rv == "" {
		rv = value(vals, s.retVal) // the paper's Fig. 4 spells it both ways
	}
	if rv != "" {
		er.Retval, err = strconv.Atoi(rv)
		if err != nil {
			return Fault{}, false, fmt.Errorf("inject: bad retval%s %q: %v", suffix, rv, err)
		}
	}
	return Fault{Function: fn, CallNumber: callNumber, Err: er}, true, nil
}
