package quality

import (
	"math"
	"testing"
	"testing/quick"

	"afex/internal/libc"
)

func TestPrecisionDeterministic(t *testing.T) {
	if p := Precision([]float64{20, 20, 20}); !math.IsInf(p, 1) {
		t.Errorf("deterministic impacts → precision %v, want +Inf", p)
	}
}

func TestPrecisionNoisy(t *testing.T) {
	p := Precision([]float64{10, 20})
	if math.Abs(p-1.0/25.0) > 1e-9 {
		t.Errorf("precision = %v, want 1/25", p)
	}
}

func TestMeasure(t *testing.T) {
	runs := 0
	impacts, precision := Measure(5, func(i int) float64 {
		runs++
		if i != runs-1 {
			t.Errorf("trial index %d on run %d", i, runs)
		}
		return 7
	})
	if runs != 5 || len(impacts) != 5 {
		t.Fatalf("runs=%d impacts=%v", runs, impacts)
	}
	if !math.IsInf(precision, 1) {
		t.Errorf("precision = %v", precision)
	}
	// n <= 0 clamps to one trial.
	impacts, _ = Measure(0, func(int) float64 { return 1 })
	if len(impacts) != 1 {
		t.Errorf("Measure(0) ran %d trials", len(impacts))
	}
}

func TestRelevanceModelLookupOrder(t *testing.T) {
	m := NewRelevanceModel(0.5)
	m.ClassWeight[libc.ClassMemory] = 0.2
	m.FuncWeight["malloc"] = 0.9
	if w := m.Weight("malloc"); w != 0.9 {
		t.Errorf("function override ignored: %v", w)
	}
	if w := m.Weight("calloc"); w != 0.2 {
		t.Errorf("class weight ignored: %v", w)
	}
	if w := m.Weight("socket"); w != 0.5 {
		t.Errorf("default ignored: %v", w)
	}
	if w := m.Weight("not_a_function"); w != 0.5 {
		t.Errorf("unknown function should get default: %v", w)
	}
}

func TestNilModelWeight(t *testing.T) {
	var m *RelevanceModel
	if w := m.Weight("malloc"); w != 1 {
		t.Errorf("nil model weight = %v, want 1", w)
	}
}

func TestNormalizeSumsToOne(t *testing.T) {
	m := Paper75Model()
	funcs := libc.Functions()
	probs := m.Normalize(funcs)
	sum := 0.0
	for _, p := range probs {
		if p < 0 {
			t.Fatal("negative probability")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("normalized sum = %v", sum)
	}
}

func TestNormalizeDegenerate(t *testing.T) {
	m := NewRelevanceModel(0)
	probs := m.Normalize([]string{"read", "write"})
	if probs["read"] != 0.5 || probs["write"] != 0.5 {
		t.Errorf("all-zero weights should normalize uniformly: %v", probs)
	}
}

func TestNormalizeProperty(t *testing.T) {
	m := Paper75Model()
	all := libc.Functions()
	if err := quick.Check(func(pick []uint8) bool {
		if len(pick) == 0 {
			return true
		}
		funcs := make([]string, 0, len(pick))
		seen := map[string]bool{}
		for _, i := range pick {
			f := all[int(i)%len(all)]
			if !seen[f] {
				funcs = append(funcs, f)
				seen[f] = true
			}
		}
		sum := 0.0
		for _, p := range m.Normalize(funcs) {
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPaper75ModelShape(t *testing.T) {
	m := Paper75Model()
	// malloc must be the single most relevant function (40% of mass).
	wm := m.Weight("malloc")
	for _, fn := range libc.Functions() {
		if fn == "malloc" {
			continue
		}
		if m.Weight(fn) >= wm {
			t.Errorf("%s weight %.3f ≥ malloc %.3f", fn, m.Weight(fn), wm)
		}
	}
	// File operations carry a combined weight of ≈0.50.
	sum := 0.0
	for _, fn := range libc.Functions() {
		if libc.Lookup(fn).Class == libc.ClassFile {
			sum += m.Weight(fn)
		}
	}
	if math.Abs(sum-0.50) > 0.02 {
		t.Errorf("file class combined weight = %.3f, want ≈0.50", sum)
	}
}

func TestModelString(t *testing.T) {
	var nilModel *RelevanceModel
	if nilModel.String() == "" {
		t.Error("nil model String empty")
	}
	m := Paper75Model()
	s := m.String()
	if s == "" || len(s) < 10 {
		t.Errorf("model string too short: %q", s)
	}
}
