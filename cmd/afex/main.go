// Command afex is the AFEX command-line interface: explore a target's
// fault space, replay a specific scenario or a journal of recorded
// failures, profile a target, or serve / join a distributed exploration
// cluster.
//
// Usage — explore, serve and submit describe a session with the same
// flags (one table, spec.go; one meaning, controlplane.SessionSpec):
//
//	afex explore [session flags] [--top 10] [--repro] [--out DIR] [--precision-trials 3]
//	             [--progress 5s] [--pprof localhost:6060]
//	afex serve   [session flags] --addr :7070 [--pprof localhost:6060]
//	afex serve   --http 127.0.0.1:8040
//	afex submit  [session flags] [--http 127.0.0.1:8040] [--wait]
//	afex status  [--http 127.0.0.1:8040] [--json] [session-id]
//	afex worker  --target coreutils --addr host:7070 --id mgr01
//	afex worker  --target "cmd:./crashy {test}" [--timeout 5s] [--procs 4] --addr host:7070 --id mgr02
//	afex replay  --target mysqld --scenario "testID 5 function read errno EIO retval -1 callNumber 3"
//	afex replay  <state-dir-or-journal> [--target mysqld] [--all] [--trials 1] [--timeout 5s]
//	afex profile --target coreutils [--funcs 19] [--call-lo 1] [--call-hi 10] [--pairs] [--errno-axis]
//	             (prints the Fig. 3 text a session with the same flags parses; --space @file reads it)
//	afex targets [--json]
//	afex stats   <state-dir> [--json]
//
//	session flags:
//	  --target mysqld | "cmd:./crashy {test}"  (a cmd: spec runs on the process backend)
//	  [--space "testID : [ 0 , 3 ]  function : { open , read }  callNumber : [ 1 , 3 ] ;" | @file]
//	  [--funcs 19] [--call-lo 1] [--call-hi 100] [--pairs] [--errno-axis]
//	  [--algorithm fitness|random|exhaustive|genetic|portfolio] [--iterations 1000] [--seed 1]
//	  [--feedback] [--shards 4] [--time-budget 10m]
//	  [--state-dir DIR] [--journal-format jsonl|binary] [--resume] [--peers 2 --peer 0]
//	  local sessions:       [--workers 4] [--timeout 5s] [--procs 4]
//	                        [--test-args "row0"] [--test-args "row1"]
//	  coordinator sessions: --serve :7070 (serve: --addr)
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
		err = cmdProfile(os.Args[2:], os.Stdout)
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
            (the text a session with the same shape flags explores)
  serve     run an exploration coordinator for remote node managers,
            or (--http) the control-plane HTTP server hosting many sessions
  worker    join a coordinator as a node manager
  submit    submit a session to a control-plane server; prints the session ID
  status    show control-plane sessions: list, one session, or --json
  targets   list built-in targets and registered execution backends
  stats     inspect a state directory: journal format, entries, resume tail

exit status 3 means the exploration found failure-inducing scenarios.`)
}

// newManager returns the in-process session manager explore and serve
// run on. With a --pprof address its control-plane handler is served
// there for the life of the process: net/http/pprof, and beside it
// /metrics and the status API (`afex status --http addr`) of its sessions.
func newManager(pprofAddr string) (*controlplane.Manager, error) {
	m := controlplane.NewManager()
	if pprofAddr == "" {
		return m, nil
	}
	srv, err := controlplane.Serve(pprofAddr, m)
	if err != nil {
		return nil, fmt.Errorf("--pprof: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", srv.Addr())
	return m, nil
}

// verdict turns a sealed session into the command's error — last, after
// everything is printed: a store flush failure must not discard results.
func verdict(res *afex.Result, storeErr error) error {
	if storeErr != nil {
		return fmt.Errorf("state store: %w", storeErr)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d failures in %d clusters: %w", res.Failed, res.UniqueFailures, errFailuresFound)
	}
	return nil
}

func cmdExplore(args []string) error {
	fs, spec := specFlags("explore")
	top := fs.Int("top", 10, "top-K faults to print")
	repro := fs.Bool("repro", false, "print generated reproduction scripts for cluster representatives")
	precisionTrials := fs.Int("precision-trials", 0, "re-run each representative this many times and report impact precision")
	out := fs.String("out", "", "write the full result tree (report, TSV, clusters, repro scripts, per-test logs) to this directory")
	progress := fs.Duration("progress", 0, "print engine stats (tests run, failures, clusters, leases) on this interval (0 = off)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof profiles — and this process's /metrics and session status API — on this address (e.g. localhost:6060)")
	if err := parseSpec(fs, args, spec); err != nil {
		return err
	}
	// Resolve → open → run, as a control-plane server does a submitted
	// spec; between resolve and open go the hooks no wire spec carries.
	plan, err := spec.Resolve()
	if err != nil {
		return err
	}
	m, err := newManager(*pprofAddr)
	if err != nil {
		return err
	}
	s, err := m.Start(plan)
	if err != nil {
		return err
	}
	// --progress prints the status endpoint's own line while waiting, so
	// terminal and API watchers read the identical rendering — per-arm
	// portfolio stats and lease waits included.
	var tick <-chan time.Time
	if *progress > 0 {
		t := time.NewTicker(*progress)
		defer t.Stop()
		tick = t.C
	}
	for sealed := false; !sealed; {
		select {
		case <-s.Done():
			sealed = true
		case <-tick:
			fmt.Fprintf(os.Stderr, "progress: %s\n", s.Status(false).Progress)
		}
	}
	res, storeErr := s.Result()
	fmt.Print(res.Report(*top))
	if *out != "" {
		if err := res.WriteDir(*out); err != nil {
			// Don't let the output-tree failure swallow a store error.
			return errors.Join(storeErr, err)
		}
		fmt.Printf("full results written to %s\n", *out)
	}
	if *precisionTrials > 0 {
		r, err := precisionRunner(plan)
		if err != nil {
			return errors.Join(storeErr, err)
		}
		defer r.Close()
		fmt.Printf("impact precision of cluster representatives (%d trials each):\n", *precisionTrials)
		for _, rec := range res.MeasurePrecision(r, afex.DefaultImpact(), *precisionTrials) {
			fmt.Printf("  precision=%8v  %s\n", rec.Precision, rec.Scenario)
		}
	}
	if *repro {
		for _, rec := range res.Representatives() {
			fmt.Println()
			fmt.Print(res.ReproScript(rec))
		}
	}
	return verdict(res, storeErr)
}

// targetBackend fills cfg for a bare execution backend — what replay
// and worker run, with no session around it — from a target name: a
// "cmd:" spec runs on the process backend, a built-in target on the
// model.
func targetBackend(targetName string, cfg afex.BackendConfig) (string, afex.BackendConfig, error) {
	var err error
	if strings.HasPrefix(targetName, "cmd:") {
		cfg.Command, err = afex.ParseCommandSpec(targetName)
		return afex.ProcessBackend, cfg, err
	}
	cfg.Target, err = afex.Target(targetName)
	return afex.ModelBackend, cfg, err
}

// precisionRunner builds the runner --precision-trials re-runs each
// representative on: one of the session's own backend (a cmd: target
// with its --test-args rows and --timeout). A coordinator session's
// managers execute, so it gets a bare one of its target.
func precisionRunner(plan *controlplane.Plan) (backend.Runner, error) {
	name, cfg, err := targetBackend(plan.Spec.Target, afex.BackendConfig{Timeout: plan.Options.ExecTimeout})
	if err != nil {
		return nil, err
	}
	if plan.Options.Command != nil {
		cfg.Command = plan.Options.Command
	}
	return backend.New(name, cfg)
}

// replayRunner builds the re-execution function for a target name (the
// journaled plan re-arms the fixture, or model, the session drove) and
// returns the model target, if it is one; cleanup releases the backend.
func replayRunner(targetName string, timeout time.Duration) (run func(testID int, plan inject.Plan) prog.Outcome, target *afex.System, cleanup func() error, err error) {
	name, cfg, err := targetBackend(targetName, afex.BackendConfig{Timeout: timeout})
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := backend.New(name, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	run = func(testID int, plan inject.Plan) prog.Outcome {
		out, _ := r.Run(testID, plan)
		return out
	}
	return run, cfg.Target, r.Close, nil
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
	trials := fs.Int("trials", 1, "number of re-runs, at least 1 (impact precision uses >1)")
	all := fs.Bool("all", false, "journal mode: replay every recorded failure, not just one per redundancy cluster")
	execTimeout := fs.Duration("timeout", 0, "process replay: per-test wall-clock cap (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("replay: --trials must be at least 1, not %d", *trials)
	}
	if journal != "" {
		return replayJournal(journal, *targetName, *trials, *all, *execTimeout)
	}
	if *targetName == "" || *scenario == "" {
		return fmt.Errorf("replay requires --target and --scenario (or a journal path)")
	}
	names, vals, err := dsl.ParseScenario(*scenario)
	if err != nil {
		return err
	}
	pt, plan, err := inject.Plugin{}.ConvertValues(names, vals)
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
func replayJournal(path, targetName string, trials int, all bool, execTimeout time.Duration) error {
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
	run, _, cleanup, err := replayRunner(targetName, execTimeout)
	if err != nil {
		return err
	}
	defer cleanup()

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

// cmdProfile prints the target's suite profile and the Fig. 3 text of
// the profiled space the shape flags name — the text a session with the
// same flags parses, so `--space @file` reads the output back — with
// the callsite analyzer's fault profiles after it as comments.
func cmdProfile(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	targetName := fs.String("target", "coreutils", "built-in target to profile")
	shape := trace.DefaultShape
	bindShape(fs, &shape)
	if err := fs.Parse(args); err != nil {
		return err
	}
	target, err := afex.Target(*targetName)
	if err != nil {
		return err
	}
	sp := afex.Profile(target)
	fmt.Fprintf(w, "# %s: %d tests, baseline coverage %.2f%%, %d distinct libc functions\n",
		target.Name, sp.Tests, 100*sp.Coverage, len(sp.TotalCalls))
	fmt.Fprintf(w, "# fault space description (Fig. 3 language):\n")
	fmt.Fprint(w, sp.Describe(shape).String())
	fmt.Fprintf(w, "# fault profiles (callsite analyzer):\n")
	fmt.Fprint(w, trace.FaultProfileReport(sp.TopFunctions(shape.WithDefaults().Funcs)))
	return nil
}

func cmdServe(args []string) error {
	fs, spec := specFlags("serve")
	httpAddr := fs.String("http", "", "run the control-plane HTTP server on this address instead of a single coordinator; sessions are then submitted via `afex submit` or POST /v1/sessions")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof profiles — and this process's /metrics and session status API — on this address (e.g. localhost:6060)")
	if err := parseSpec(fs, args, spec); err != nil {
		return err
	}
	m, err := newManager(*pprofAddr)
	if err != nil {
		return err
	}
	if *httpAddr != "" {
		srv, err := controlplane.Serve(*httpAddr, m)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("control plane listening on http://%s\n", srv.Addr())
		fmt.Println("submit sessions with `afex submit --http " + srv.Addr() + " ...`; press Ctrl-C to stop")
		select {} // serve until killed
	}
	if spec.Serve == "" {
		return fmt.Errorf("serve needs an --addr for managers to dial (or --http for the control plane)")
	}
	s, err := m.Submit(*spec)
	if err != nil {
		return err
	}
	region := ""
	if s.Spec.Peers > 1 {
		region = fmt.Sprintf(", region %d of %d", s.Spec.Peer, s.Spec.Peers)
	}
	fmt.Printf("coordinator serving %s exploration on %s (budget %d tests%s)\n", s.Spec.Target, s.Addr(), s.Spec.Iterations, region)
	fmt.Println("press Ctrl-C to stop; stats are printed when the budget is spent, the space drained or the time budget passed")
	// The session seals by itself (a restored session counts its prior
	// runs' tests toward the budget).
	<-s.Done()
	res, storeErr := s.Result()
	fmt.Printf("done: executed=%d injected=%d failed=%d crashed=%d hung=%d\n",
		res.Executed, res.Injected, res.Failed, res.Crashed, res.Hung)
	for id, n := range s.Status(false).PerManager {
		fmt.Printf("  %s executed %d\n", id, n)
	}
	// The distributed session runs on the same engine as a local one, so
	// the full synopsis is available here too.
	fmt.Print(res.Report(10))
	return verdict(res, storeErr)
}

func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	targetName := fs.String("target", "coreutils", "target system under test (must match the coordinator's): a built-in model, or a cmd: spec run on the process backend")
	execTimeout := fs.Duration("timeout", 0, "process backend: per-test wall-clock cap (0 = default)")
	procs := fs.Int("procs", 0, "process backend: max concurrently running subprocesses, and so the worker loops (0 = default)")
	addr := fs.String("addr", "127.0.0.1:7070", "coordinator address")
	id := fs.String("id", "worker", "manager identity reported to the coordinator")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name, bcfg, err := targetBackend(*targetName, afex.BackendConfig{Timeout: *execTimeout, Procs: *procs})
	if err != nil {
		return err
	}
	// Leases are sized by the coordinator from measured test latency, and
	// the manager runs one worker loop per slot of its backend's pool.
	mgr, err := afex.DialManagerBackend(*addr, *id, name, bcfg)
	if err != nil {
		return err
	}
	defer mgr.Close()
	n, err := mgr.RunUntilDone()
	fmt.Printf("%s executed %d tests\n", *id, n)
	return err
}

// cmdTargets lists the built-in model targets and the registered
// execution backends — everything a --target can name and run on — in
// a stable, golden-testable order. --json emits the same data
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
	fmt.Fprintln(w, "execution backends (the target's kind picks one):")
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
