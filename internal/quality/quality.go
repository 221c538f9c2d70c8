// Package quality implements the remaining result-quality metrics of §5:
// impact precision (how reproducible a fault's measured impact is) and
// practical relevance (how likely a fault class is to occur in the
// deployment environment, per a statistical model the developer
// provides).
package quality

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"afex/internal/libc"
	"afex/internal/xrand"
)

// Precision quantifies reproducibility: AFEX re-runs a test n times and
// reports 1/Var of the measured impact. High precision means the system's
// response to the fault is likely deterministic — the failures developers
// should debug first. A zero variance (perfectly deterministic) yields +Inf.
func Precision(impacts []float64) float64 {
	v := xrand.Variance(impacts)
	if v == 0 {
		return math.Inf(1)
	}
	return 1 / v
}

// Measure runs trial n times and returns the impacts and their precision.
// It is the "impact precision" loop of §5 with n configured by the
// developer.
func Measure(n int, trial func(run int) float64) (impacts []float64, precision float64) {
	if n <= 0 {
		n = 1
	}
	impacts = make([]float64, n)
	for i := 0; i < n; i++ {
		impacts[i] = trial(i)
	}
	return impacts, Precision(impacts)
}

// RelevanceModel is a statistical model of the deployment environment:
// relative probabilities that each class of faults occurs in practice
// (§5 "Practical Relevance", §7.5). Weights are relative; Normalize
// brings them to a distribution. Function-level entries override
// class-level entries.
type RelevanceModel struct {
	// ClassWeight maps a libc function class to a relative probability.
	ClassWeight map[libc.Class]float64
	// FuncWeight maps a specific function to a relative probability,
	// overriding its class.
	FuncWeight map[string]float64
	// Default applies when neither map has an entry.
	Default float64
}

// NewRelevanceModel returns an empty model with the given default weight.
func NewRelevanceModel(def float64) *RelevanceModel {
	return &RelevanceModel{
		ClassWeight: make(map[libc.Class]float64),
		FuncWeight:  make(map[string]float64),
		Default:     def,
	}
}

// Weight returns the model's relative probability for a fault in the
// named function. Unknown functions get the Default.
func (m *RelevanceModel) Weight(function string) float64 {
	if m == nil {
		return 1
	}
	if w, ok := m.FuncWeight[function]; ok {
		return w
	}
	if p := libc.Lookup(function); p != nil {
		if w, ok := m.ClassWeight[p.Class]; ok {
			return w
		}
	}
	return m.Default
}

// Normalize scales the weights of the given functions into probabilities
// summing to 1, returning them keyed by function.
func (m *RelevanceModel) Normalize(functions []string) map[string]float64 {
	out := make(map[string]float64, len(functions))
	total := 0.0
	for _, f := range functions {
		w := m.Weight(f)
		if w < 0 {
			w = 0
		}
		out[f] = w
		total += w
	}
	if total <= 0 {
		for _, f := range functions {
			out[f] = 1 / float64(len(functions))
		}
		return out
	}
	for f := range out {
		out[f] /= total
	}
	return out
}

// String renders the model for reports.
func (m *RelevanceModel) String() string {
	if m == nil {
		return "<no relevance model>"
	}
	var b strings.Builder
	classes := make([]int, 0, len(m.ClassWeight))
	for c := range m.ClassWeight {
		classes = append(classes, int(c))
	}
	sort.Ints(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "class %-8s weight %.3f\n", libc.Class(c), m.ClassWeight[libc.Class(c)])
	}
	funcs := make([]string, 0, len(m.FuncWeight))
	for f := range m.FuncWeight {
		funcs = append(funcs, f)
	}
	sort.Strings(funcs)
	for _, f := range funcs {
		fmt.Fprintf(&b, "func  %-8s weight %.3f\n", f, m.FuncWeight[f])
	}
	fmt.Fprintf(&b, "default weight %.3f\n", m.Default)
	return b.String()
}

// Paper75Model returns the environment model used in the §7.5 experiment:
// malloc has a relative failure probability of 40%, file-related
// operations a *combined* weight of 50% (split evenly across the file
// functions), and opendir/chdir a combined weight of 10%.
func Paper75Model() *RelevanceModel {
	m := NewRelevanceModel(0.002)
	m.FuncWeight["malloc"] = 0.40
	nFile := 0
	for _, fn := range libc.Functions() {
		if libc.Lookup(fn).Class == libc.ClassFile {
			nFile++
		}
	}
	if nFile > 0 {
		for _, fn := range libc.Functions() {
			if libc.Lookup(fn).Class == libc.ClassFile {
				m.FuncWeight[fn] = 0.50 / float64(nFile)
			}
		}
	}
	m.FuncWeight["opendir"] = 0.05
	m.FuncWeight["chdir"] = 0.05
	return m
}
