package prog

import (
	"sort"
	"testing"
	"testing/quick"

	"afex/internal/inject"
)

// opsEqual compares ops field-wise, including the errno-behaviour map.
func opsEqual(a, b Op) bool {
	if a.Func != b.Func || a.Callee != b.Callee || a.Repeat != b.Repeat ||
		a.OnError != b.OnError || a.Block != b.Block || a.RecoveryBlock != b.RecoveryBlock ||
		a.CrashID != b.CrashID || a.OnlyAfterError != b.OnlyAfterError ||
		len(a.ErrnoBehavior) != len(b.ErrnoBehavior) {
		return false
	}
	for k, v := range a.ErrnoBehavior {
		if b.ErrnoBehavior[k] != v {
			return false
		}
	}
	return true
}

func genSpecForTest() GenSpec {
	return GenSpec{
		Name:              "gen",
		Seed:              11,
		Modules:           6,
		RoutinesPerModule: 4,
		MinOps:            3,
		MaxOps:            6,
		Tests:             24,
		ScriptLen:         3,
		Fragility:         0.5,
		CrashBias:         0.5,
		CrossModule:       0.2,
		RepeatBias:        0.3,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(genSpecForTest())
	b := Generate(genSpecForTest())
	if len(a.Routines) != len(b.Routines) || a.NumBlocks != b.NumBlocks {
		t.Fatal("structure differs across identical specs")
	}
	for name, ra := range a.Routines {
		rb := b.Routines[name]
		if rb == nil || len(ra.Ops) != len(rb.Ops) {
			t.Fatalf("routine %s differs", name)
		}
		for i := range ra.Ops {
			if !opsEqual(ra.Ops[i], rb.Ops[i]) {
				t.Fatalf("routine %s op %d differs: %+v vs %+v", name, i, ra.Ops[i], rb.Ops[i])
			}
		}
	}
	for i := range a.TestSuite {
		if a.TestSuite[i].Name != b.TestSuite[i].Name {
			t.Fatal("test names differ")
		}
	}
	// Different seed should produce a different program.
	spec := genSpecForTest()
	spec.Seed = 12
	c := Generate(spec)
	same := true
	for name, ra := range a.Routines {
		rc := c.Routines[name]
		if rc == nil || len(ra.Ops) != len(rc.Ops) {
			same = false
			break
		}
		for i := range ra.Ops {
			if !opsEqual(ra.Ops[i], rc.Ops[i]) {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds generated identical programs")
	}
}

func TestGenerateValidates(t *testing.T) {
	p := Generate(genSpecForTest())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.TestSuite) != 24 {
		t.Errorf("suite size = %d", len(p.TestSuite))
	}
	if p.NumBlocks == 0 {
		t.Error("no blocks allocated")
	}
}

func TestGenerateBaselinePasses(t *testing.T) {
	p := Generate(genSpecForTest())
	for i := range p.TestSuite {
		out := Run(p, i, inject.Plan{})
		if out.Failed || out.Crashed || out.Hung {
			t.Fatalf("test %d (%s) fails without injection: %+v", i, p.TestSuite[i].Name, out)
		}
	}
}

func TestGenerateModuleNames(t *testing.T) {
	spec := genSpecForTest()
	spec.ModuleNames = []string{"alpha", "beta"}
	p := Generate(spec)
	foundAlpha, foundFallback := false, false
	for _, r := range p.Routines {
		if r.Module == "alpha" {
			foundAlpha = true
		}
		if r.Module == "mod02" {
			foundFallback = true
		}
	}
	if !foundAlpha || !foundFallback {
		t.Errorf("module naming wrong: alpha=%v fallback=%v", foundAlpha, foundFallback)
	}
}

func TestGenerateTestNamesCarryModule(t *testing.T) {
	spec := genSpecForTest()
	spec.ModuleNames = []string{"m0", "m1", "m2", "m3", "m4", "m5"}
	p := Generate(spec)
	// Test 0's primary module is m0; the last test's is m5.
	if want := "gen/m0-t0000"; p.TestSuite[0].Name != want {
		t.Errorf("first test name = %q, want %q", p.TestSuite[0].Name, want)
	}
	if want := "gen/m5-t0023"; p.TestSuite[23].Name != want {
		t.Errorf("last test name = %q, want %q", p.TestSuite[23].Name, want)
	}
}

func TestGenerateFragileSet(t *testing.T) {
	spec := genSpecForTest()
	spec.FragileSet = []int{0}
	spec.CrashBias = 1.0
	a := Generate(spec)
	// Crashy behaviours should appear only in module 0's routines.
	crashyIn := map[string]bool{}
	for _, r := range a.Routines {
		for _, op := range r.Ops {
			switch op.OnError {
			case UncheckedCrash, BuggyRecovery, AbortOnError, HangOnError:
				crashyIn[r.Module] = true
			}
		}
	}
	if !crashyIn["mod00"] {
		t.Error("pinned fragile module has no crashy behaviour (statistically near-impossible)")
	}
	for m := range crashyIn {
		if m != "mod00" {
			t.Errorf("crashy behaviour leaked into robust module %s", m)
		}
	}
}

func TestGenerateXMalloc(t *testing.T) {
	spec := genSpecForTest()
	spec.XMalloc = true
	spec.CommonBias = 0.5
	p := Generate(spec)
	for _, r := range p.Routines {
		for i, op := range r.Ops {
			switch op.Func {
			case "malloc", "calloc", "realloc", "strdup":
				if op.OnError != ExitOnError {
					t.Fatalf("%s op %d: xmalloc allocation has behaviour %v", r.Name, i, op.OnError)
				}
			}
		}
	}
	// Every test must make at least one allocation (the entry-routine
	// malloc), so every test is failable by an OOM injection.
	malloc := sort.SearchStrings(p.FunctionsUsed(), "malloc")
	for ti := range p.TestSuite {
		if _, calls := p.FaultFree(ti); calls[malloc] == 0 {
			t.Fatalf("test %d makes no malloc calls despite XMalloc", ti)
		}
	}
}

func TestGenerateSharedRecoveryBlockPerRoutine(t *testing.T) {
	p := Generate(genSpecForTest())
	for _, r := range p.Routines {
		seen := map[int]bool{}
		for _, op := range r.Ops {
			if op.RecoveryBlock != 0 {
				seen[op.RecoveryBlock] = true
			}
		}
		if len(seen) > 1 {
			t.Fatalf("routine %s has %d recovery blocks; the generator promises one shared label", r.Name, len(seen))
		}
	}
}

func TestGenerateTestAxisStructure(t *testing.T) {
	// Adjacent tests should mostly exercise the same module — that is
	// the test-axis structure the search exploits.
	p := Generate(genSpecForTest())
	sameModule := 0
	for i := 1; i < len(p.TestSuite); i++ {
		a := p.TestSuite[i-1].Script[0]
		b := p.TestSuite[i].Script[0]
		if p.Routines[a].Module == p.Routines[b].Module {
			sameModule++
		}
	}
	if sameModule < len(p.TestSuite)/2 {
		t.Errorf("only %d/%d adjacent test pairs share a module; test axis lost its structure",
			sameModule, len(p.TestSuite)-1)
	}
}

// TestGeneratePropertyAlwaysValidAndClean is the generator's core
// contract, checked over random spec corners: whatever the knobs,
// generation must produce a structurally valid program whose entire
// suite passes without injection.
func TestGeneratePropertyAlwaysValidAndClean(t *testing.T) {
	if err := quick.Check(func(seed int64, m, r, tests uint8, frag, crash, cross, repeat float64, xmalloc bool) bool {
		spec := GenSpec{
			Name:              "prop",
			Seed:              seed,
			Modules:           int(m)%12 + 1,
			RoutinesPerModule: int(r)%8 + 1,
			Tests:             int(tests)%40 + 1,
			Fragility:         clamp01(frag),
			CrashBias:         clamp01(crash),
			CrossModule:       clamp01(cross),
			RepeatBias:        clamp01(repeat),
			XMalloc:           xmalloc,
		}
		p := Generate(spec) // panics on invalid output
		for i := range p.TestSuite {
			out := Run(p, i, inject.Plan{})
			if out.Failed || out.Crashed || out.Hung || out.Injected {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func clamp01(x float64) float64 {
	if x != x || x < 0 { // NaN or negative
		return 0
	}
	for x > 1 {
		x /= 10
	}
	return x
}

func TestGeneratePanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero modules")
		}
	}()
	Generate(GenSpec{Name: "bad", Tests: 1, RoutinesPerModule: 1})
}
