// Command afex is the AFEX command-line interface: explore a target's
// fault space, replay a specific scenario or a journal of recorded
// failures, profile a target, or serve / join a distributed exploration
// cluster.
//
// Usage:
//
//	afex explore --target mysqld [--algo fitness|random|exhaustive|genetic|portfolio]
//	             [--backend model|process] [--iterations 1000] [--seed 1]
//	             [--feedback] [--workers 4] [--batch 16] [--prefetch -1] [--shards 4]
//	             [--funcs 19] [--call-lo 1] [--call-hi 100] [--top 10]
//	             [--repro] [--state-dir DIR] [--resume] [--progress 5s]
//	             [--pprof localhost:6060]
//	afex explore --backend process --target "cmd:./crashy {test}" \
//	             --space "testID : [ 0 , 3 ]  function : { open , read }  callNumber : [ 1 , 3 ] ;" \
//	             [--timeout 5s] [--procs 4] [--test-args "row0"] [--test-args "row1"]
//	afex replay  --target mysqld --scenario "testID 5 function read errno EIO retval -1 callNumber 3"
//	afex replay  <state-dir-or-journal> [--target mysqld] [--all] [--trials 1] [--timeout 5s]
//	afex profile --target coreutils [--funcs 19]
//	afex serve   --target coreutils --addr :7070 [--iterations 500] [--shards 4]
//	             [--algo portfolio] [--state-dir DIR] [--resume] [--lease-timeout 30s]
//	             [--prefetch -1] [--pprof localhost:6060]
//	afex worker  --target coreutils --addr host:7070 --id mgr01
//	afex worker  --backend process --target "cmd:./crashy {test}" --addr host:7070 --id mgr02
//	afex targets [--json]
//	afex stats   <state-dir> [--json]
//
// Exit status: 0 on success with no failures found, 1 on errors, 2 on
// usage mistakes, and 3 when the exploration (or serve session) found
// failure-inducing scenarios — so CI jobs can gate on "no new failure
// clusters" while still distinguishing tool breakage.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"afex"
	"afex/internal/backend"
	"afex/internal/controlplane"
	"afex/internal/dsl"
	"afex/internal/inject"
	"afex/internal/prog"
	"afex/internal/trace"
)

// errFailuresFound signals the distinct CI-gating exit status: the run
// itself succeeded, but failure-inducing scenarios exist.
var errFailuresFound = errors.New("failure-inducing scenarios were found")

// exitFailuresFound is the documented exit status for errFailuresFound.
const exitFailuresFound = 3

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "explore":
		err = cmdExplore(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:], os.Stdout)
	case "status":
		err = cmdStatus(os.Args[2:], os.Stdout)
	case "targets":
		err = cmdTargets(os.Args[2:], os.Stdout)
	case "stats":
		err = cmdStats(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "afex: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "afex:", err)
		if errors.Is(err, errFailuresFound) {
			os.Exit(exitFailuresFound)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `afex — automated fault exploration (EuroSys 2012 reproduction)

commands:
  explore   search a target's fault space for high-impact faults
  replay    re-inject one scenario — or a journal of recorded failures
  profile   run the suite under tracing; print the fault-space description
  serve     run an exploration coordinator for remote node managers,
            or (--http) the control-plane HTTP server hosting many sessions
  worker    join a coordinator as a node manager
  submit    submit a session to a control-plane server; prints the session ID
  status    show control-plane sessions: list, one session, or --json
  targets   list built-in targets and registered execution backends
  stats     inspect a state directory: journal format, entries, resume tail

exit status 3 means the exploration found failure-inducing scenarios.`)
}

// startPprof serves net/http/pprof on addr for the lifetime of the
// process — the --pprof flag's backing. An explicit mux keeps the
// profiler off http.DefaultServeMux, which other subsystems never use
// either.
func startPprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("--pprof: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", ln.Addr())
	go http.Serve(ln, mux)
	return nil
}

// multiFlag collects a repeatable string flag (e.g. --test-args).
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// loadSpace parses a fault-space description given literally or as
// "@path" to a description file.
func loadSpace(desc string) (*afex.Space, error) {
	if strings.HasPrefix(desc, "@") {
		raw, err := os.ReadFile(desc[1:])
		if err != nil {
			return nil, err
		}
		desc = string(raw)
	}
	return afex.ParseSpace(desc)
}

func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	targetName := fs.String("target", "coreutils", "target system under test: a built-in model, or a \"cmd:\" spec launching a real fixture ({test} expands to the testID)")
	backendName := fs.String("backend", "", "execution backend: "+strings.Join(afex.Backends(), " | ")+" (default: model for built-in targets, process for cmd: targets)")
	spaceDesc := fs.String("space", "", "fault-space description in the Fig. 3 language, or @file (required for cmd: targets; overrides the profiled space for built-in ones)")
	execTimeout := fs.Duration("timeout", 0, "process backend: per-test wall-clock cap; expired tests are killed and folded as Hung (0 = default)")
	procs := fs.Int("procs", 0, "process backend: max concurrently running subprocesses, independent of --workers (0 = default)")
	testsPerProc := fs.Int("tests-per-proc", 0, "process backend: scenarios a warm worker serves before being recycled (0 = default, negative = one-shot mode: one process per scenario)")
	var testArgs multiFlag
	fs.Var(&testArgs, "test-args", "process backend: per-test argument row appended to the command template, repeatable (row i serves testID i)")
	algorithm := fs.String("algorithm", afex.FitnessGuided, "exploration strategy: "+strings.Join(afex.Algorithms(), " | "))
	fs.StringVar(algorithm, "algo", afex.FitnessGuided, "alias for --algorithm")
	iterations := fs.Int("iterations", 250, "number of tests to execute (0 = until exhausted)")
	seed := fs.Int64("seed", 1, "RNG seed")
	feedback := fs.Bool("feedback", false, "enable redundancy feedback (§7.4)")
	workers := fs.Int("workers", 1, "concurrent node managers")
	batch := fs.Int("batch", 0, "candidates leased per worker coordination round (0 = default; parallel mode only)")
	prefetch := fs.Int("prefetch", 0, "candidate prefetch ring depth: >0 fixed capacity, -1 adaptive (~2x the adaptive batch), 0 no ring (each lease generates its own candidates)")
	shards := fs.Int("shards", 0, "partition the space into this many disjoint regions, one fitness search each (0/1 = unsharded)")
	nFuncs := fs.Int("funcs", 19, "function-axis size")
	callLo := fs.Int("call-lo", 1, "callNumber axis lower bound (0 adds a no-injection point)")
	callHi := fs.Int("call-hi", 10, "callNumber axis upper bound")
	top := fs.Int("top", 10, "top-K faults to print")
	repro := fs.Bool("repro", false, "print generated reproduction scripts for cluster representatives")
	pairs := fs.Bool("pairs", false, "explore two-fault scenarios (quadratic space; keep --funcs/--call-hi small)")
	errnoAxis := fs.Bool("errno-axis", false, "use a detailed space with per-function errno/retval axes (Fig. 4 style)")
	precisionTrials := fs.Int("precision-trials", 0, "re-run each representative this many times and report impact precision")
	out := fs.String("out", "", "write the full result tree (report, TSV, clusters, repro scripts, per-test logs) to this directory")
	budget := fs.Duration("time-budget", 0, "stop after this much wall clock (0 = no limit)")
	verbose := fs.Bool("verbose", false, "log progress every 100 tests")
	stateDir := fs.String("state-dir", "", "persist the session here: journal every scenario, never re-execute one across runs; --iterations counts the whole session including prior runs")
	journalFormat := fs.String("journal-format", "", "with --state-dir: journal format for a NEW directory, "+afex.JournalJSONL+" (default) or "+afex.JournalBinary+" (indexed binary segments; existing directories keep their format)")
	resume := fs.Bool("resume", false, "with --state-dir: restore the explorer's search state and continue where the previous run stopped")
	progress := fs.Duration("progress", 0, "print engine stats (tests run, failures, clusters, leases) on this interval (0 = off)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof profiles on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *stateDir == "" {
		return fmt.Errorf("--resume requires --state-dir")
	}
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr); err != nil {
			return err
		}
	}
	// A cmd: target runs on the process backend; built-in model targets
	// default to the model backend. An explicit --backend must agree
	// with the target's kind.
	procTarget := strings.HasPrefix(*targetName, "cmd:")
	if procTarget && *backendName == "" {
		*backendName = afex.ProcessBackend
	}
	if *backendName == afex.ProcessBackend && !procTarget {
		return fmt.Errorf(`--backend process requires a cmd: target spec, e.g. --target "cmd:./crashy {test}"`)
	}
	if procTarget && *backendName != afex.ProcessBackend {
		return fmt.Errorf("cmd: targets run on the process backend, not %q", *backendName)
	}

	var target *afex.System
	var command *afex.CommandSpec
	var space *afex.Space
	var err error
	if procTarget {
		if command, err = afex.ParseCommandSpec(*targetName); err != nil {
			return err
		}
		for _, row := range testArgs {
			command.TestArgs = append(command.TestArgs, strings.Fields(row))
		}
		if *spaceDesc == "" {
			return fmt.Errorf("cmd: targets need --space (a Fig. 3 fault-space description, or @file)")
		}
	} else {
		if target, err = afex.Target(*targetName); err != nil {
			return err
		}
	}
	if *precisionTrials > 0 && target == nil {
		// Fail before the exploration runs, not after hours of it.
		return fmt.Errorf("--precision-trials re-runs through the program model and needs a built-in target")
	}
	switch {
	case *spaceDesc != "":
		if space, err = loadSpace(*spaceDesc); err != nil {
			return err
		}
	case *pairs:
		space = afex.PairSpaceFor(target, *nFuncs, *callHi)
	case *errnoAxis:
		space = afex.DetailedSpaceFor(target, *nFuncs, *callLo, *callHi)
	default:
		space = afex.SpaceFor(target, *nFuncs, *callLo, *callHi)
	}
	opts := afex.Options{
		Target:        target,
		Backend:       *backendName,
		Command:       command,
		ExecTimeout:   *execTimeout,
		Procs:         *procs,
		TestsPerProc:  *testsPerProc,
		Space:         space,
		Algorithm:     *algorithm,
		Iterations:    *iterations,
		Workers:       *workers,
		Batch:         *batch,
		PrefetchDepth: *prefetch,
		Shards:        *shards,
		Feedback:      *feedback,
		TimeBudget:    *budget,
		StateDir:      *stateDir,
		JournalFormat: *journalFormat,
		Resume:        *resume,
		Explore:       afex.ExploreOptions{Seed: *seed},
	}
	if *verbose {
		opts.Progress = func(s afex.Snapshot) {
			fmt.Fprintf(os.Stderr, "progress: executed=%d injected=%d failed=%d crashed=%d coverage=%.1f%%\n",
				s.Executed, s.Injected, s.Failed, s.Crashed, 100*s.Coverage)
		}
	}
	eng, cleanup, err := afex.NewSession(opts)
	if err != nil {
		return err
	}
	if *progress > 0 {
		stop := startProgress(eng, *progress)
		defer stop()
	}
	res := eng.RunLocal()
	// A store flush failure must not discard the run's in-memory
	// results: print and write everything first, surface the error last.
	storeErr := cleanup()
	fmt.Print(res.Report(*top))
	if *out != "" {
		if err := res.WriteDir(*out); err != nil {
			// Don't let the output-tree failure swallow a store error.
			return errors.Join(storeErr, err)
		}
		fmt.Printf("full results written to %s\n", *out)
	}
	if *precisionTrials > 0 {
		fmt.Printf("impact precision of cluster representatives (%d trials each):\n", *precisionTrials)
		for _, rec := range res.MeasurePrecision(target, afex.DefaultImpact(), *precisionTrials) {
			fmt.Printf("  precision=%8v  %s\n", rec.Precision, rec.Scenario)
		}
	}
	if *repro {
		for _, rec := range res.Representatives() {
			fmt.Println()
			fmt.Print(res.ReproScript(rec))
		}
	}
	if storeErr != nil {
		return fmt.Errorf("state store: %w", storeErr)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d failures in %d clusters: %w", res.Failed, res.UniqueFailures, errFailuresFound)
	}
	return nil
}

// startProgress prints the engine's live tally — the long-run visibility
// --progress asks for — until the returned stop function is called.
func startProgress(eng *afex.Engine, every time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				// Summary is the same rendering the control plane's status
				// endpoint serves, so terminal and API watchers read the
				// identical line — per-arm portfolio stats and lease waits
				// included.
				fmt.Fprintf(os.Stderr, "progress: %s\n", eng.Snapshot().Summary())
			}
		}
	}()
	return func() { close(done) }
}

// replayRunner builds the re-execution function for a target name: the
// program model for built-in targets, the process backend for "cmd:"
// specs (the journaled plan re-arms the same fixture the session
// drove). The returned cleanup releases the backend.
func replayRunner(targetName string, timeout time.Duration) (run func(testID int, plan inject.Plan) prog.Outcome, target *afex.System, cleanup func() error, err error) {
	if strings.HasPrefix(targetName, "cmd:") {
		spec, err := afex.ParseCommandSpec(targetName)
		if err != nil {
			return nil, nil, nil, err
		}
		r, err := backend.New(backend.Process, backend.Config{Command: spec, Timeout: timeout})
		if err != nil {
			return nil, nil, nil, err
		}
		run = func(testID int, plan inject.Plan) prog.Outcome {
			out, _ := r.Run(testID, plan)
			return out
		}
		return run, nil, r.Close, nil
	}
	t, err := afex.Target(targetName)
	if err != nil {
		return nil, nil, nil, err
	}
	run = func(testID int, plan inject.Plan) prog.Outcome { return prog.Run(t, testID, plan) }
	return run, t, func() error { return nil }, nil
}

func cmdReplay(args []string) error {
	// A positional first argument is a journal source: a state directory
	// (written by explore/serve --state-dir) or a journal.jsonl file.
	journal := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		journal, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	targetName := fs.String("target", "", "target system under test: a built-in model or a cmd: spec (journal mode: defaults to the recorded target)")
	scenario := fs.String("scenario", "", "scenario in the wire format, e.g. \"testID 3 function read callNumber 2\"")
	trials := fs.Int("trials", 1, "number of re-runs (impact precision uses >1)")
	all := fs.Bool("all", false, "journal mode: replay every recorded failure, not just one per redundancy cluster")
	execTimeout := fs.Duration("timeout", 0, "process replay: per-test wall-clock cap (0 = default)")
	backendName := fs.String("backend", "", "execution backend to replay on: "+strings.Join(afex.Backends(), " | ")+" (default: inferred from the target — process for cmd: specs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backendName != "" {
		// The backend is inferred from the target's kind; an explicit
		// flag must agree (and catches typos with the registry's list).
		procTarget := strings.HasPrefix(*targetName, "cmd:")
		switch *backendName {
		case afex.ProcessBackend:
			if !procTarget && journal == "" {
				return fmt.Errorf(`--backend process replays a cmd: target, e.g. --target "cmd:./crashy {test}"`)
			}
		case afex.ModelBackend:
			if procTarget {
				return fmt.Errorf("cmd: targets replay on the process backend, not %q", *backendName)
			}
		default:
			return fmt.Errorf("unknown execution backend %q (valid: %s)", *backendName, strings.Join(afex.Backends(), ", "))
		}
	}
	if journal != "" {
		return replayJournal(journal, *targetName, *backendName, *trials, *all, *execTimeout)
	}
	if *targetName == "" || *scenario == "" {
		return fmt.Errorf("replay requires --target and --scenario (or a journal path)")
	}
	sc, err := dsl.ParseScenario(*scenario)
	if err != nil {
		return err
	}
	var plugin inject.Plugin
	pt, plan, err := plugin.Convert(sc)
	if err != nil {
		return err
	}
	run, target, cleanup, err := replayRunner(*targetName, *execTimeout)
	if err != nil {
		return err
	}
	defer cleanup()
	for i := 0; i < *trials; i++ {
		out := run(pt.TestID, plan)
		cov := ""
		if target != nil {
			cov = fmt.Sprintf(" coverage=%.2f%%", 100*out.Coverage(target))
		}
		fmt.Printf("run %d: injected=%v failed=%v crashed=%v hung=%v%s\n",
			i+1, out.Injected, out.Failed, out.Crashed, out.Hung, cov)
		if out.CrashID != "" {
			fmt.Printf("  crash identity: %s\n", out.CrashID)
		}
		for _, fr := range out.InjectionStack {
			fmt.Printf("  %s\n", fr)
		}
	}
	return nil
}

// replayJournal re-executes the failures recorded in a persistent
// session's journal — the reproduction path of the store: every entry
// carries its armed injection plan, so a recorded failure replays
// without re-searching the fault space. By default one representative
// per redundancy cluster is replayed (the tests worth promoting into a
// regression suite); --all replays every recorded failure.
func replayJournal(path, targetName, backendName string, trials int, all bool, execTimeout time.Duration) error {
	entries, err := afex.ReplayJournal(path)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no journal entries at %s", path)
	}
	if targetName == "" {
		meta, err := afex.StateMeta(path)
		if err != nil || meta.Target == "" {
			return fmt.Errorf("journal %s records no target; pass --target", path)
		}
		targetName = meta.Target
	}
	// The backend follows the (possibly journal-recorded) target's
	// kind; an explicit --backend that disagrees is an error, never
	// silently ignored.
	if procTarget := strings.HasPrefix(targetName, "cmd:"); backendName != "" {
		if procTarget && backendName != afex.ProcessBackend {
			return fmt.Errorf("journal target %q replays on the process backend, not %q", targetName, backendName)
		}
		if !procTarget && backendName != afex.ModelBackend {
			return fmt.Errorf("journal target %q replays on the model backend, not %q", targetName, backendName)
		}
	}
	run, _, cleanup, err := replayRunner(targetName, execTimeout)
	if err != nil {
		return err
	}
	defer cleanup()
	if trials < 1 {
		trials = 1
	}

	seenCluster := make(map[int]bool)
	replayed, reproduced := 0, 0
	for _, e := range entries {
		if !e.Injected || !e.Failed {
			continue
		}
		if !all {
			if seenCluster[e.Cluster] {
				continue
			}
			seenCluster[e.Cluster] = true
		}
		plan := inject.Plan{Faults: e.Plan}
		var out prog.Outcome
		ok := true
		for t := 0; t < trials; t++ {
			out = run(e.TestID, plan)
			if out.Failed != e.Failed || out.Crashed != e.Crashed || out.Hung != e.Hung {
				ok = false
			}
		}
		replayed++
		verdict := "DIVERGED"
		if ok {
			reproduced++
			verdict = "reproduced"
		}
		fmt.Printf("#%d cluster=%d %s\n  recorded failed=%v crashed=%v hung=%v — replay failed=%v crashed=%v hung=%v: %s\n",
			e.Seq, e.Cluster, e.Scenario,
			e.Failed, e.Crashed, e.Hung, out.Failed, out.Crashed, out.Hung, verdict)
	}
	if replayed == 0 {
		fmt.Printf("journal %s records no failures; nothing to replay\n", path)
		return nil
	}
	fmt.Printf("reproduced %d/%d recorded failure%s against %s\n",
		reproduced, replayed, plural(replayed), targetName)
	if reproduced < replayed {
		return fmt.Errorf("%d recorded failure(s) did not reproduce", replayed-reproduced)
	}
	return nil
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	targetName := fs.String("target", "coreutils", "target system under test")
	nFuncs := fs.Int("funcs", 19, "function-axis size")
	callLo := fs.Int("call-lo", 1, "callNumber axis lower bound")
	callHi := fs.Int("call-hi", 10, "callNumber axis upper bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	target, err := afex.Target(*targetName)
	if err != nil {
		return err
	}
	sp := afex.Profile(target)
	fmt.Printf("# %s: %d tests, baseline coverage %.2f%%, %d distinct libc functions\n",
		target.Name, sp.Tests, 100*sp.Coverage, len(sp.TotalCalls))
	fmt.Printf("# fault space description (Fig. 3 language):\n")
	fmt.Print(sp.BuildDescription(*nFuncs, *callLo, *callHi).String())
	fmt.Printf("# fault profiles (callsite analyzer):\n")
	fmt.Print(trace.FaultProfileReport(sp.TopFunctions(*nFuncs)))
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	targetName := fs.String("target", "coreutils", "target system under test")
	addr := fs.String("addr", ":7070", "listen address")
	httpAddr := fs.String("http", "", "run the control-plane HTTP server on this address instead of a single coordinator; sessions are then submitted via `afex submit` or POST /v1/sessions")
	iterations := fs.Int("iterations", 500, "test budget (0 = until exhausted)")
	algorithm := fs.String("algorithm", afex.FitnessGuided, "exploration strategy: "+strings.Join(afex.Algorithms(), " | "))
	fs.StringVar(algorithm, "algo", afex.FitnessGuided, "alias for --algorithm")
	seed := fs.Int64("seed", 1, "RNG seed")
	nFuncs := fs.Int("funcs", 19, "function-axis size")
	callLo := fs.Int("call-lo", 1, "callNumber axis lower bound")
	callHi := fs.Int("call-hi", 10, "callNumber axis upper bound")
	shards := fs.Int("shards", 0, "partition the space into this many disjoint regions, one fitness search each (0/1 = unsharded)")
	stateDir := fs.String("state-dir", "", "persist the coordinator's session here; a restarted serve continues the same session")
	resume := fs.Bool("resume", false, "with --state-dir: restore the explorer's search state from the last snapshot")
	backendName := fs.String("backend", "", "validate that workers will use this execution backend name: "+strings.Join(afex.Backends(), " | ")+" (the backend itself runs on the workers)")
	leaseTimeout := fs.Duration("lease-timeout", 0, "re-lease tasks a manager never reported back after this long (0 = never; leases then leak if a manager dies)")
	prefetch := fs.Int("prefetch", 0, "candidate prefetch ring depth: >0 fixed capacity, -1 adaptive (~2x the adaptive batch), 0 no ring (each lease generates its own candidates)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof profiles on this address (e.g. localhost:6060)")
	heartbeat := fs.Duration("heartbeat", 0, "expect manager heartbeats at this interval; a manager missing --heartbeat-misses beats has its leases expired immediately (0 = off)")
	heartbeatMisses := fs.Int("heartbeat-misses", 0, "heartbeats a manager may miss before being declared dead (0 = default)")
	peers := fs.Int("peers", 0, "split the space across this many peer coordinators via disjoint sharding; this process serves region --peer")
	peer := fs.Int("peer", 0, "this coordinator's 0-based region index among --peers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr); err != nil {
			return err
		}
	}
	if *httpAddr != "" {
		m := controlplane.NewManager()
		srv, err := controlplane.Serve(*httpAddr, m)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("control plane listening on http://%s\n", srv.Addr())
		fmt.Println("submit sessions with `afex submit --http " + srv.Addr() + " ...`; press Ctrl-C to stop")
		select {} // serve until killed
	}
	if *resume && *stateDir == "" {
		return fmt.Errorf("--resume requires --state-dir")
	}
	if *backendName != "" {
		// The coordinator never executes tests itself; workers bring the
		// backend. Validating the name here surfaces typos at serve time
		// with the registry's full-choice error.
		valid := false
		for _, n := range afex.Backends() {
			if n == *backendName {
				valid = true
			}
		}
		if !valid {
			return fmt.Errorf("unknown execution backend %q (valid: %s)", *backendName, strings.Join(afex.Backends(), ", "))
		}
	}
	target, err := afex.Target(*targetName)
	if err != nil {
		return err
	}
	space := afex.SpaceFor(target, *nFuncs, *callLo, *callHi)
	coord, cleanup, err := afex.NewCoordinatorWithOptions(afex.CoordinatorOptions{
		TargetName:      target.Name,
		Space:           space,
		Algorithm:       *algorithm,
		Explore:         afex.ExploreOptions{Seed: *seed},
		Budget:          *iterations,
		Shards:          *shards,
		LeaseTimeout:    *leaseTimeout,
		Prefetch:        *prefetch,
		HeartbeatEvery:  *heartbeat,
		HeartbeatMisses: *heartbeatMisses,
		StateDir:        *stateDir,
		Resume:          *resume,
		Peer:            *peer,
		Peers:           *peers,
	})
	if err != nil {
		return err
	}
	srv, err := afex.ServeCoordinator(*addr, coord)
	if err != nil {
		cleanup()
		return err
	}
	defer srv.Close()
	if *peers > 1 {
		fmt.Printf("coordinator serving %s exploration on %s (budget %d tests, region %d of %d)\n",
			target.Name, srv.Addr(), *iterations, *peer, *peers)
	} else {
		fmt.Printf("coordinator serving %s exploration on %s (budget %d tests)\n", target.Name, srv.Addr(), *iterations)
	}
	fmt.Println("press Ctrl-C to stop; stats are printed when the budget is reached")
	// Poll until the budget is consumed (a restored session counts its
	// prior runs' tests toward the budget).
	for {
		time.Sleep(200 * time.Millisecond)
		st := coord.Snapshot()
		if *iterations > 0 && st.Executed >= *iterations {
			fmt.Printf("done: executed=%d injected=%d failed=%d crashed=%d hung=%d\n",
				st.Executed, st.Injected, st.Failed, st.Crashed, st.Hung)
			for id, n := range st.PerManager {
				fmt.Printf("  %s executed %d\n", id, n)
			}
			// The distributed session runs on the same engine as a local
			// one, so the full synopsis is available here too.
			res := coord.Result()
			fmt.Print(res.Report(10))
			if err := cleanup(); err != nil {
				return fmt.Errorf("state store: %w", err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("%d failures in %d clusters: %w", res.Failed, res.UniqueFailures, errFailuresFound)
			}
			return nil
		}
	}
}

func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	targetName := fs.String("target", "coreutils", "target system under test (must match the coordinator's): a built-in model or a cmd: spec")
	backendName := fs.String("backend", "", "execution backend: "+strings.Join(afex.Backends(), " | ")+" (default: model for built-in targets, process for cmd: targets)")
	execTimeout := fs.Duration("timeout", 0, "process backend: per-test wall-clock cap (0 = default)")
	procs := fs.Int("procs", 0, "process backend: max concurrently running subprocesses (0 = default)")
	testsPerProc := fs.Int("tests-per-proc", 0, "process backend: scenarios a warm worker serves before being recycled (0 = default, negative = one-shot mode: one process per scenario)")
	addr := fs.String("addr", "127.0.0.1:7070", "coordinator address")
	id := fs.String("id", "worker", "manager identity reported to the coordinator")
	rpcBatch := fs.Int("rpc-batch", 0, "tests leased per RPC round trip: 0 = adaptive (coordinator-sized from measured test latency), 1 = one at a time with no lease in flight during execution, >1 = fixed batch")
	rpcConcurrency := fs.Int("rpc-concurrency", 0, "leased tests executing at once (0 = backend pool width, or GOMAXPROCS)")
	rpcFlush := fs.Duration("rpc-flush", 0, "max age of buffered results before a report flush (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	procTarget := strings.HasPrefix(*targetName, "cmd:")
	if procTarget && *backendName == "" {
		*backendName = afex.ProcessBackend
	}
	bcfg := afex.BackendConfig{Timeout: *execTimeout, Procs: *procs, TestsPerProc: *testsPerProc}
	if procTarget {
		spec, err := afex.ParseCommandSpec(*targetName)
		if err != nil {
			return err
		}
		bcfg.Command = spec
	} else {
		target, err := afex.Target(*targetName)
		if err != nil {
			return err
		}
		bcfg.Target = target
	}
	mgr, err := afex.DialManagerBackend(*addr, *id, *backendName, bcfg)
	if err != nil {
		return err
	}
	defer mgr.Close()
	mgr.Batch = *rpcBatch
	mgr.Concurrency = *rpcConcurrency
	mgr.FlushEvery = *rpcFlush
	n, err := mgr.RunUntilDone()
	fmt.Printf("%s executed %d tests\n", *id, n)
	return err
}

// cmdTargets lists the built-in model targets and the registered
// execution backends — everything a --target/--backend pair can name —
// in a stable, golden-testable order. --json emits the same data
// machine-readably.
func cmdTargets(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("targets", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := afex.TargetNames()
	backends := afex.Backends()
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Targets  []string `json:"targets"`
			Backends []string `json:"backends"`
		}{targets, backends})
	}
	fmt.Fprintln(w, "built-in targets (run on the model backend):")
	for _, n := range targets {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintln(w, "execution backends (--backend):")
	for _, n := range backends {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintln(w, `process targets are given as a cmd: spec, e.g. --target "cmd:./crashy {test}"`)
	return nil
}

// cmdStats inspects a state directory without opening (or locking) it:
// journal format, entry/segment/index counts, snapshot position, and
// the resume-tail size — how much journal the next --resume must
// materialize. --json emits the same data machine-readably.
func cmdStats(args []string, w io.Writer) error {
	var dir string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		dir, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if dir == "" && fs.NArg() == 1 {
		dir = fs.Arg(0)
	} else if fs.NArg() != 0 || dir == "" {
		return fmt.Errorf("stats requires exactly one state directory: afex stats <state-dir> [--json]")
	}
	st, err := afex.ReadStateStats(dir)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Fprintf(w, "journal format:     %s\n", st.Format)
	if st.Target != "" {
		fmt.Fprintf(w, "target:             %s\n", st.Target)
	}
	fmt.Fprintf(w, "runs:               %d\n", st.Runs)
	fmt.Fprintf(w, "entries:            %d (archive %d + live %d, %d segment%s)\n",
		st.Entries, st.ArchivedEntries, st.LiveEntries, st.Segments, plural(st.Segments))
	fmt.Fprintf(w, "index blocks:       %d (side-index records %d)\n", st.IndexBlocks, st.SideIndexRecords)
	if st.HasSnapshot {
		fmt.Fprintf(w, "snapshot seq:       %d (%s, %d keys)\n", st.SnapshotSeq, st.SnapshotFormat, st.SnapshotKeys)
		fmt.Fprintf(w, "snapshot bytes:     %d (state %d + sets %d + keys %d; %d key list%s, %d written as a reference)\n", st.SnapshotBytes,
			st.SnapshotStateBytes, st.SnapshotSetsBytes, st.SnapshotKeysBytes, st.SnapshotKeyLists, plural(st.SnapshotKeyLists), st.SnapshotKeyRefs)
	} else {
		fmt.Fprintf(w, "snapshot seq:       none\n")
	}
	fmt.Fprintf(w, "resume tail:        %d entr%s\n", st.TailEntries, pluralY(st.TailEntries))
	fmt.Fprintf(w, "resume path:        %s\n", st.ResumePath)
	fmt.Fprintf(w, "compacted through:  %d\n", st.CompactedSeq)
	fmt.Fprintf(w, "journal bytes:      %d (archive %d)\n", st.JournalBytes, st.ArchiveBytes)
	return nil
}

func pluralY(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
