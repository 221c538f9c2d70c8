package main

// The five workloads. Later issues refer to them by name; the README
// says why each exists and which layer it loads.

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"afex"
	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/prog"
	"afex/internal/store"
)

// benchEnv is where a benchmark process works: the module root (where
// it builds the fixture from), its scratch directory, and the budget
// divisor (1 for real runs; the package test runs at 1/100).
type benchEnv struct {
	root  string
	tmp   string
	scale int
	seq   int
}

// newEnv makes a scratch directory under bench/out, which .gitignore
// names; close removes it.
func newEnv(scale int) (*benchEnv, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, err
	}
	return &benchEnv{root: root, tmp: tmp, scale: scale}, nil
}

func (e *benchEnv) close() error { return os.RemoveAll(e.tmp) }

// freshDir returns a new, not yet created path under the scratch
// directory.
func (e *benchEnv) freshDir(prefix string) string {
	e.seq++
	return filepath.Join(e.tmp, prefix+"-"+strconv.Itoa(e.seq))
}

// scaled divides a full-size budget by the environment's divisor.
func (e *benchEnv) scaled(n int) int {
	if n /= e.scale; n < 1 {
		return 1
	}
	return n
}

// moduleRoot walks up from the working directory to the go.mod that
// declares module afex: the benchmark runs from the root of a checkout,
// its package test from bench/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module afex\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no go.mod of module afex above the working directory; run from the root of a checkout")
		}
		dir = parent
	}
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// setupReps is how many set-up samples a run takes (the median is
	// setup_s), setupBurst how many set-ups in a row make one sample:
	// a set-up of a tenth of a second jitters by a third, so a sample is
	// the mean of enough of them to last about half a second.
	setupReps, setupBurst int
	setup                 func(env *benchEnv, seed int64) (fixture, error)
}

var workloads = []workload{
	{
		name:       "model-seq",
		why:        "the paper's single-node configuration on the mysqld model: execution (backend, prog, libc) dominates, fully deterministic",
		setupReps:  5,
		setupBurst: 3,
		setup:      setupModelSeq,
	},
	{
		name:       "engine-par-store",
		why:        "a 1 us target, two workers and a binary journal: core locks, explore, cluster and the store write path do the work",
		setupReps:  5,
		setupBurst: 4,
		setup:      setupEngineParStore,
	},
	{
		name:       "process-warm",
		why:        "the real crashy fixture on the warm worker pool with a jsonl journal: backend and shim pipe transport dominate",
		setupReps:  3,
		setupBurst: 1,
		setup:      setupProcessWarm,
	},
	{
		name:       "rpc-loopback",
		why:        "one coordinator and two managers over loopback TCP: rpcnode wire encode/decode and the lease/fold adapter dominate",
		setupReps:  5,
		setupBurst: 4,
		setup:      setupRPCLoopback,
	},
	{
		name:       "resume-tail",
		why:        "the read side of the store: resume a killed 100k-entry binary session from snapshot plus tail, and scan its journal",
		setupReps:  3,
		setupBurst: 1,
		setup:      setupResumeTail,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupModelSeq: mysqld model, testID × 19 functions × callNumber
// [1,2000], fitness-guided with result-quality feedback, one worker, no
// store, 50 000 iterations.
func setupModelSeq(env *benchEnv, seed int64) (fixture, error) {
	target, err := afex.Target("mysqld")
	if err != nil {
		return nil, err
	}
	f := &localFixture{
		env:  env,
		name: "model-seq",
		cfg: core.Config{
			Target:    target,
			Space:     afex.SpaceFor(target, 19, 1, 2000),
			Algorithm: afex.FitnessGuided,
			Feedback:  true,
			Workers:   1,
			Explore:   explore.Config{Seed: seed},
		},
		budget:        env.scaled(50000),
		deterministic: true,
	}
	return f, f.warmUp()
}

// tinyTarget is a four-test program that tolerates every fault:
// execution costs about a microsecond, so whatever the session costs
// beyond that is the engine's.
func tinyTarget() *prog.Program {
	p := &prog.Program{
		Name: "bench-tiny",
		Routines: map[string]*prog.Routine{
			"serve": {Name: "serve", Module: "srv", Ops: []prog.Op{
				{Func: "read", Repeat: 2, OnError: prog.Tolerate, Block: 1},
				{Func: "malloc", OnError: prog.Tolerate, Block: 2},
				{Func: "write", Repeat: 2, OnError: prog.Tolerate, Block: 3},
			}},
		},
		TestSuite: []prog.Test{
			{Name: "t0", Script: []string{"serve"}},
			{Name: "t1", Script: []string{"serve"}},
			{Name: "t2", Script: []string{"serve"}},
			{Name: "t3", Script: []string{"serve"}},
		},
		NumBlocks: 3,
	}
	if err := p.Validate(); err != nil {
		panic("bench: tiny target: " + err.Error())
	}
	return p
}

// tinySpace spans 1.2 M points over tinyTarget.
func tinySpace() *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("tiny",
		faultspace.IntAxis("testID", 0, 3),
		faultspace.SetAxis("function", "read", "malloc", "write"),
		faultspace.IntAxis("callNumber", 1, 100000),
	))
}

// Synthetic outcome shape: one point in injectOneIn injects; its stack
// comes from a pool of stackPool duplicates, except that novelPerMille
// of them are seen nowhere else; a third of the injections fail, a few
// of those crash. The shares were tuned once so that a repetition of
// engine-par-store takes about four seconds here and cluster is 25–40%
// of its traced self time (README, "Tuning").
const (
	injectOneIn    = 4
	stackPool      = 400
	novelPerMille  = 20
	stackMinDepth  = 6
	stackMaxDepth  = 14
	failOneIn      = 3
	crashOneInFail = 16
)

// stamper replaces every outcome, through the core.Executor seam, with
// a synthetic one derived from the point's hash. The engine's fold path
// then does full clustering work on a target whose execution costs
// nothing.
type stamper struct {
	pool [][]string
	salt uint64
}

func newStamper(seed int64) *stamper {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]string, stackPool)
	for i := range pool {
		st := make([]string, stackMinDepth+rng.Intn(stackMaxDepth-stackMinDepth+1))
		for j := range st {
			st[j] = fmt.Sprintf("mod%d!fn%d", rng.Intn(16), rng.Intn(64))
		}
		pool[i] = st
	}
	return &stamper{pool: pool, salt: uint64(seed)}
}

// pointHash is FNV-1a over the point's coordinates with a final mix; it
// allocates nothing.
func pointHash(p faultspace.Point, salt uint64) uint64 {
	h := uint64(14695981039346656037) ^ salt
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(p.Sub))
	for _, x := range p.Fault {
		mix(uint64(x))
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// outcome returns the synthetic observation for point p: a nil stack
// when the point does not inject.
func (s *stamper) outcome(p faultspace.Point) (stack []string, failed, crashed bool) {
	h := pointHash(p, s.salt)
	if (h>>56)%injectOneIn != 0 {
		return nil, false, false
	}
	stack = s.pool[h%stackPool]
	if (h>>16)%1000 < novelPerMille {
		novel := append([]string(nil), stack...)
		novel[(h>>8)%uint64(len(novel))] = "novel!" + strconv.FormatUint(h>>20, 36)
		stack = novel
	}
	failed = (h>>40)%failOneIn == 0
	crashed = failed && (h>>48)%crashOneInFail == 0
	return stack, failed, crashed
}

type stampedExecutor struct {
	s     *stamper
	inner core.Executor
}

func (s *stamper) wrap(inner core.Executor) core.Executor {
	return &stampedExecutor{s: s, inner: inner}
}

func (e *stampedExecutor) Execute(c explore.Candidate) (core.Record, prog.Outcome) {
	rec, out := e.inner.Execute(c)
	out.InjectionStack, out.Failed, out.Crashed = e.s.outcome(c.Point)
	out.Injected = out.InjectionStack != nil
	return rec, out
}

// matches reports whether a folded record carries the outcome the
// stamper gave its point.
func (s *stamper) matches(rec *core.Record) bool {
	stack, failed, crashed := s.outcome(rec.Point)
	out := rec.Outcome
	if out.Injected != (stack != nil) || out.Failed != failed || out.Crashed != crashed || len(out.InjectionStack) != len(stack) {
		return false
	}
	for i := range stack {
		if out.InjectionStack[i] != stack[i] {
			return false
		}
	}
	return true
}

// setupEngineParStore: tinyTarget over 1.2 M points, portfolio with
// feedback, two workers at the default batch, shipped prefetch and
// precompute defaults, binary journal with default snapshots, 50 000
// iterations of stamped outcomes (the README says why not 150 000).
func setupEngineParStore(env *benchEnv, seed int64) (fixture, error) {
	f := &localFixture{
		env:  env,
		name: "engine-par-store",
		cfg: core.Config{
			Target:    tinyTarget(),
			Space:     tinySpace(),
			Algorithm: afex.Portfolio,
			Feedback:  true,
			Workers:   2,
			Explore:   explore.Config{Seed: seed},
		},
		budget:  env.scaled(50000),
		journal: store.FormatBinary,
		stamp:   newStamper(seed),
	}
	return f, f.warmUp()
}

// crashyFunctions are the library calls the crashy fixture makes.
var crashyFunctions = []string{"open", "read", "malloc", "write"}

// crashyTimeout is the per-scenario wall-clock cap: what the one planted
// hang costs a worker. The issue sized it at 250 ms; on this shared box
// a scenario that normally takes 30 us was once stalled past that and
// folded as a hang, so it is a second.
const crashyTimeout = time.Second

// setupProcessWarm: builds cmd/crashy, probes that it speaks worker
// mode, and prepares the exhaustive session over testID [0,3] × four
// functions × callNumber [1,3750] (60 000 points, the budget) on two
// workers and two warm processes, 1 s exec timeout, jsonl journal.
// The seed orders the function axis, which reorders the enumeration and
// changes nothing else.
func setupProcessWarm(env *benchEnv, seed int64) (fixture, error) {
	dir := env.freshDir("crashy")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(dir, "crashy")
	build := exec.Command("go", "build", "-o", bin, "./cmd/crashy")
	build.Dir = env.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build cmd/crashy: %v\n%s", err, out)
	}
	spec, err := afex.ParseCommandSpec("cmd:" + bin + " {test}")
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Command:     spec,
		Algorithm:   afex.Exhaustive,
		Workers:     2,
		Procs:       2,
		ExecTimeout: crashyTimeout,
	}
	// Pool spawn and ready handshake: the fixture must come up warm, or
	// the workload would silently measure fork/exec per scenario.
	probe, err := backend.New(backend.Process, backend.Config{Command: spec, Timeout: cfg.ExecTimeout, Procs: cfg.Procs})
	if err != nil {
		return nil, err
	}
	_, warm := probe.(backend.Recycler)
	if err := probe.Close(); err != nil {
		return nil, err
	}
	if !warm {
		return nil, fmt.Errorf("bench: %s did not come up in worker mode", bin)
	}
	funcs := append([]string(nil), crashyFunctions...)
	rand.New(rand.NewSource(seed)).Shuffle(len(funcs), func(i, j int) { funcs[i], funcs[j] = funcs[j], funcs[i] })
	calls := env.scaled(3750)
	cfg.Space = faultspace.NewUnion(faultspace.New("crashy",
		faultspace.IntAxis("testID", 0, 3),
		faultspace.SetAxis("function", funcs...),
		faultspace.IntAxis("callNumber", 1, calls),
	))
	f := &localFixture{
		env:     env,
		name:    "process-warm",
		cfg:     cfg,
		budget:  4 * len(funcs) * calls,
		journal: store.FormatJSONL,
		oracle:  crashyOracle,
		cleanup: func() error { return os.RemoveAll(dir) },
	}
	return f, f.warmUp()
}

// crashyOracle holds the session to cmd/crashy's documented recovery
// bugs: over the whole space exactly four scenarios fail — open#1 in
// read-config, malloc#1 (the crash) and malloc#2 in cache-init, write#1
// (the hang) in flush-log.
func crashyOracle(res *core.ResultSet, r *repResult) {
	want := map[string]string{
		"0 open 1":   "fail",
		"1 malloc 1": "crash",
		"1 malloc 2": "fail",
		"2 write 1":  "hang",
	}
	wrong, first := 0, ""
	for i := range res.Records {
		rec := &res.Records[i]
		class := outcomeClass(rec)
		expect := "clean"
		if len(rec.Plan.Faults) == 1 {
			f := rec.Plan.Faults[0]
			if w, ok := want[fmt.Sprintf("%d %s %d", rec.TestID, f.Function, f.CallNumber)]; ok {
				expect = w
			}
		}
		if failing := class == "fail" || class == "crash" || class == "hang"; failing || expect != "clean" {
			if class != expect {
				if wrong++; first == "" {
					first = fmt.Sprintf("%q came out %s (%s), want %s", rec.Scenario, class, rec.ExitStatus, expect)
				}
			}
		}
	}
	r.fail(wrong, "%d outcomes contradict cmd/crashy's documented behaviour, first: %s", wrong, first)
	if res.Failed != 4 || res.Crashed != 1 || res.Hung != 1 {
		r.fail(1, "found %d failures / %d crashes / %d hangs, want 4 / 1 / 1", res.Failed, res.Crashed, res.Hung)
	}
}
