package main

// The session flag table: explore, serve and submit describe a session
// with the same flags, bound once onto a controlplane.SessionSpec. What
// a spec means — and what it may not say — is decided in one place, the
// control plane's SessionSpec.Resolve, not here.

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"afex"
	"afex/internal/controlplane"
	"afex/internal/trace"
)

// specDefaults is the session each command describes given no flags.
// explore and serve spell out (and so print in their help) what submit
// leaves to the server: empty algorithm = fitness, zero shape = the
// default one.
var specDefaults = map[string]controlplane.SessionSpec{
	"explore": {Target: "coreutils", Algorithm: afex.FitnessGuided, Iterations: 250, Seed: 1, Workers: 1, Shape: trace.DefaultShape},
	"serve":   {Target: "coreutils", Algorithm: afex.FitnessGuided, Iterations: 500, Seed: 1, Shape: trace.DefaultShape, Serve: ":7070"},
	"submit":  {Target: "coreutils", Seed: 1},
}

// specFlags returns cmd's flag set with the session table bound onto a
// copy of its defaults; the command adds the flags that are its own.
func specFlags(cmd string) (*flag.FlagSet, *controlplane.SessionSpec) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	spec := specDefaults[cmd]
	bindSpec(fs, &spec)
	if cmd == "serve" {
		fs.StringVar(&spec.Serve, "addr", spec.Serve, "listen address (this command's spelling of --serve)")
	}
	return fs, &spec
}

// multiFlag collects a repeatable string flag (e.g. --test-args).
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// bindSpec registers every session-describing flag on fs, writing into
// spec; spec's values at the call are the subcommand's defaults.
func bindSpec(fs *flag.FlagSet, spec *controlplane.SessionSpec) {
	fs.StringVar(&spec.Target, "target", spec.Target, "target system under test: a built-in model, or a \"cmd:\" spec launching a real fixture on the process backend ({test} expands to the testID)")
	fs.StringVar(&spec.Space, "space", spec.Space, "fault-space description in the Fig. 3 language, or @file (required for cmd: targets; overrides the profiled space for built-in ones)")
	bindShape(fs, &spec.Shape)
	fs.StringVar(&spec.Algorithm, "algorithm", spec.Algorithm, "exploration strategy: "+strings.Join(afex.Algorithms(), " | ")+" (empty = "+afex.FitnessGuided+")")
	fs.IntVar(&spec.Iterations, "iterations", spec.Iterations, "number of tests to execute (0 = until exhausted; a coordinator session then runs until stopped)")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "RNG seed")
	fs.BoolVar(&spec.Feedback, "feedback", spec.Feedback, "enable redundancy feedback (§7.4)")
	fs.IntVar(&spec.Workers, "workers", spec.Workers, "concurrent node managers of a local session")
	fs.IntVar(&spec.Shards, "shards", spec.Shards, "partition the space into this many disjoint regions, one search each (0/1 = unsharded)")
	fs.Var((*multiFlag)(&spec.TestArgs), "test-args", "process backend: per-test argument row appended to the command template, repeatable (row i serves testID i)")
	fs.StringVar(&spec.Timeout, "timeout", spec.Timeout, "process backend: per-test wall-clock cap, a `duration`; expired tests are killed and folded as Hung (0 = default)")
	fs.IntVar(&spec.Procs, "procs", spec.Procs, "process backend: max concurrently running subprocesses, independent of --workers (0 = default)")
	fs.StringVar(&spec.TimeBudget, "time-budget", spec.TimeBudget, "stop after this `duration` of wall clock (0 = no limit)")
	fs.StringVar(&spec.StateDir, "state-dir", spec.StateDir, "persist the session here: journal every scenario, never re-execute one across runs; --iterations counts the whole session including prior runs")
	fs.StringVar(&spec.JournalFormat, "journal-format", spec.JournalFormat, "with --state-dir: journal format for a NEW directory, "+afex.JournalJSONL+" (default) or "+afex.JournalBinary+" (crc-framed binary segments; existing directories keep their format)")
	fs.BoolVar(&spec.Resume, "resume", spec.Resume, "with --state-dir: restore the explorer's search state and continue where the previous run stopped")
	fs.StringVar(&spec.Serve, "serve", spec.Serve, "coordinator mode: serve the manager RPC protocol on this address; remote afex workers execute the scenarios")
	fs.IntVar(&spec.Peers, "peers", spec.Peers, "split the space across this many peer sessions via disjoint sharding; this one explores region --peer")
	fs.IntVar(&spec.Peer, "peer", spec.Peer, "this session's 0-based region index among --peers")
}

// bindShape registers the profiled-space shorthands on fs, writing into
// s: the flags whose Fig. 3 text `afex profile` prints and a session
// with the same flags parses.
func bindShape(fs *flag.FlagSet, s *trace.Shape) {
	d := trace.DefaultShape
	fs.IntVar(&s.Funcs, "funcs", s.Funcs, fmt.Sprintf("profiled space: function-axis size (0 = %d)", d.Funcs))
	fs.IntVar(&s.CallLo, "call-lo", s.CallLo, "profiled space: callNumber axis lower bound (0 adds a no-injection point)")
	fs.IntVar(&s.CallHi, "call-hi", s.CallHi, fmt.Sprintf("profiled space: callNumber axis upper bound (0 = bounds %d to %d)", d.CallLo, d.CallHi))
	fs.BoolVar(&s.Pairs, "pairs", s.Pairs, "profiled space: two-fault scenarios (quadratic space; keep --funcs/--call-hi small)")
	fs.BoolVar(&s.ErrnoAxis, "errno-axis", s.ErrnoAxis, "profiled space: per-function errno/retval axes (Fig. 4 style)")
}

// parseSpec parses args and inlines an "@file" space, so the spec that
// leaves the CLI — for the resolver here or a server elsewhere — names
// no file of this machine.
func parseSpec(fs *flag.FlagSet, args []string, spec *controlplane.SessionSpec) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if strings.HasPrefix(spec.Space, "@") {
		raw, err := os.ReadFile(spec.Space[1:])
		if err != nil {
			return err
		}
		spec.Space = string(raw)
	}
	return nil
}
