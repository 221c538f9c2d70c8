package afex_test

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"afex"
	"afex/internal/backend"
	"afex/internal/prog"
	"afex/internal/targets"
)

// kvStore is a small key-value store hand-built as a program model —
// write-ahead log, memtable, compaction, each with explicit (and partly
// buggy) recovery code — the way a tester wraps a real system's
// start/test/cleanup scripts (§6.4). Block ids double as line numbers in
// stack frames.
func kvStore() *afex.System {
	b := 0
	nb := func() int { b++; return b }
	p := &prog.Program{Name: "kvstore", Routines: map[string]*prog.Routine{
		// Opening and appending are retried; fsync failure aborts (a
		// deliberate crash-on-inconsistency policy).
		"wal_append": {Name: "wal_append", Module: "wal", Ops: []prog.Op{
			{Func: "open", OnError: prog.Retry, Block: nb()},
			{Func: "write", Repeat: 4, OnError: prog.CleanRecovery, Block: nb(), RecoveryBlock: nb()},
			{Func: "fsync", OnError: prog.AbortOnError, Block: nb(), RecoveryBlock: nb(), CrashID: "kvstore-wal-fsync-abort"},
		}},
		// The resize path forgets to check realloc: a planted bug.
		"memtable_put": {Name: "memtable_put", Module: "memtable", Ops: []prog.Op{
			{Func: "malloc", OnError: prog.CleanRecovery, Block: nb(), RecoveryBlock: nb()},
			{Func: "realloc", OnError: prog.UncheckedCrash, Block: nb(), CrashID: "kvstore-realloc-unchecked"},
		}},
		// The rename error path releases the compaction lock it never took
		// on this path — a double-unlock like MySQL bug #53268.
		"compact": {Name: "compact", Module: "compaction", Ops: []prog.Op{
			{Func: "open", OnError: prog.CleanRecovery, Block: nb(), RecoveryBlock: nb()},
			{Func: "read", Repeat: 3, OnError: prog.CleanRecovery, Block: nb(), RecoveryBlock: nb()},
			{Func: "write", Repeat: 3, OnError: prog.CleanRecovery, Block: nb(), RecoveryBlock: nb()},
			{Func: "rename", OnError: prog.BuggyRecovery, Block: nb(), RecoveryBlock: nb(), CrashID: "kvstore-compact-double-unlock"},
			{Func: "unlink", OnError: prog.Tolerate, Block: nb()},
		}},
		"get": {Name: "get", Module: "reader", Ops: []prog.Op{
			{Func: "open", OnError: prog.Propagate, Block: nb(), RecoveryBlock: nb()},
			{Func: "pread", Repeat: 2, OnError: prog.Propagate, Block: nb(), RecoveryBlock: nb()},
			{Func: "close", OnError: prog.Tolerate, Block: nb()},
		}},
	}}
	p.TestSuite = []prog.Test{
		{Name: "kv/put-small", Script: []string{"memtable_put", "wal_append"}},
		{Name: "kv/put-large", Script: []string{"memtable_put", "memtable_put", "wal_append"}},
		{Name: "kv/put-batch", Script: []string{"memtable_put", "wal_append", "wal_append"}},
		{Name: "kv/get-hit", Script: []string{"memtable_put", "wal_append", "get"}},
		{Name: "kv/get-miss", Script: []string{"get"}},
		{Name: "kv/compact-one", Script: []string{"memtable_put", "wal_append", "compact"}},
		{Name: "kv/compact-two", Script: []string{"memtable_put", "wal_append", "compact", "compact"}},
		{Name: "kv/recover", Script: []string{"get", "compact", "get"}},
	}
	p.NumBlocks = b
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// Example_customTarget brings its own system under test: AFEX explores
// anything that runs a named test with an armed fault injector. The
// fault space is written by hand in the Fig. 3 language — a file-I/O
// subspace and a memory one — and small enough to sweep whole.
func Example_customTarget() {
	space, err := afex.ParseSpace(`
        file_faults
        testID : [ 0 , 7 ]
        function : { open, read, pread, write, fsync, rename, unlink, close }
        callNumber : [ 1 , 8 ] ;

        memory_faults
        testID : [ 0 , 7 ]
        function : { malloc, realloc }
        callNumber : [ 1 , 4 ] ;
    `)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := afex.Explore(afex.Options{Target: kvStore(), Space: space, Algorithm: afex.Exhaustive})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, line := range strings.SplitAfter(res.Report(3), "\n") {
		if !strings.HasPrefix(line, "  elapsed") {
			fmt.Print(line)
		}
	}
	fmt.Println("redundancy clusters among failures (threshold: 1 frame):")
	for i, cl := range res.FailureClusters() {
		fmt.Printf("  cluster %d (%d members): %v\n", i, len(cl.Members), cl.Representative)
	}
	// Output:
	// AFEX session report
	//   target        kvstore
	//   algorithm     exhaustive
	//   fault space   576 points
	//   tests         576 executed, 106 injected
	//   failures      91 (4 unique)
	//   crashes       18 (3 unique), hangs 0
	//   coverage      100.00% (recovery code 100.00%)
	//   distinct crash identities:
	//     kvstore-compact-double-unlock                    ×4
	//     kvstore-realloc-unchecked                        ×7
	//     kvstore-wal-fsync-abort                          ×7
	//   top 3 faults by severity:
	//     impact=   21.0 cluster=  0 testID 0 function fsync callNumber 1
	//     impact=   21.0 cluster=  2 testID 5 function rename callNumber 1
	//     impact=   20.0 cluster=  0 testID 1 function fsync callNumber 1
	// redundancy clusters among failures (threshold: 1 frame):
	//   cluster 0 (35 members): [wal!wal_append write:b2]
	//   cluster 1 (30 members): [compaction!compact open:b9]
	//   cluster 2 (14 members): [memtable!memtable_put malloc:b6]
	//   cluster 3 (12 members): [reader!get open:b18]
}

// Example_pairFaults explores a two-fault space. Recovery code often
// survives any single fault — a retried write, a recovery that allocates
// — and breaks only when a second fault lands on the recovery path
// itself (§6). The space is written by hand: the recovery-path malloc
// never runs in a clean run, so no profile can observe it.
func Example_pairFaults() {
	b := 0
	nb := func() int { b++; return b }
	target := &prog.Program{Name: "engine", Routines: map[string]*prog.Routine{
		// The write is retried once: it breaks only if two writes fail.
		"append": {Name: "append", Module: "log", Ops: []prog.Op{
			{Func: "write", OnError: prog.Retry, Block: nb()},
		}},
		// A failed fsync runs recovery that allocates a rollback buffer,
		// and nothing checks that allocation.
		"checkpoint": {Name: "checkpoint", Module: "snap", Ops: []prog.Op{
			{Func: "fsync", OnError: prog.Tolerate, Block: nb(), RecoveryBlock: nb()},
			{Func: "malloc", OnlyAfterError: true, OnError: prog.UncheckedCrash, Block: nb(), CrashID: "engine-recovery-oom"},
		}},
	}, TestSuite: []prog.Test{
		{Name: "eng/append", Script: []string{"append"}},
		{Name: "eng/append-2x", Script: []string{"append", "append"}},
		{Name: "eng/checkpoint", Script: []string{"append", "checkpoint"}},
	}}
	target.NumBlocks = b
	const single = "testID : [ 0 , 2 ] function : { write, fsync, malloc } callNumber : [ 0 , 4 ]"
	for n, text := range []string{single + " ;", single + " function2 : { write, fsync, malloc } callNumber2 : [ 0 , 4 ] ;"} {
		space, err := afex.ParseSpace(text)
		if err != nil {
			fmt.Println(err)
			return
		}
		res, err := afex.Explore(afex.Options{Target: target, Space: space, Algorithm: afex.Exhaustive})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%d-fault sweep of %d scenarios: %d failures, %d crashes\n", n+1, res.Executed, res.Failed, res.Crashed)
		seen := map[string]bool{}
		for _, rec := range res.Records {
			kind := "retry exhaustion"
			if rec.Outcome.Crashed {
				kind = "fault on the recovery path (" + rec.Outcome.CrashID + ")"
			}
			if rec.Outcome.Failed && !seen[kind] {
				seen[kind] = true
				fmt.Printf("  %s, e.g. %s\n", kind, rec.Scenario)
			}
		}
	}
	// Output:
	// 1-fault sweep of 45 scenarios: 0 failures, 0 crashes
	// 2-fault sweep of 675 scenarios: 10 failures, 2 crashes
	//   retry exhaustion, e.g. testID 0 function write callNumber 1 function2 write callNumber2 2
	//   fault on the recovery path (engine-recovery-oom), e.g. testID 2 function fsync callNumber 1 function2 malloc callNumber2 1
}

// Example_quickstart is the smallest complete AFEX workflow: pick a
// system under test, derive its fault space by profiling (the ltrace
// methodology of §7), explore with a budget of 250 tests, read the
// ranked, clustered results, and make the session persistent
// (StateDir), so later runs skip every scenario this one executed and a
// killed run resumes where it stopped. The equivalent CLI session:
//
//	afex explore --target coreutils --state-dir ./state --iterations 250 --progress 5s
//	afex explore --target coreutils --state-dir ./state --iterations 500 --resume
//	afex replay  ./state   # re-execute the recorded failures
func Example_quickstart() {
	target, err := afex.Target("coreutils")
	if err != nil {
		fmt.Println(err)
		return
	}
	// testID × 19 most-called libc functions × callNumber {0,1,2}
	// (0 = no injection), the paper's Φ_coreutils of 1,653 faults.
	space := afex.SpaceFor(target, 19, 0, 2)
	fmt.Printf("exploring %s: %d tests, fault space of %d points\n", target.Name, len(target.TestSuite), space.Size())
	opts := afex.Options{Target: target, Space: space, Algorithm: afex.FitnessGuided, Iterations: 250,
		Explore: afex.ExploreOptions{Seed: 42}}
	res, err := afex.Explore(opts)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, line := range strings.SplitAfter(res.Report(5), "\n") {
		if !strings.HasPrefix(line, "  elapsed") {
			fmt.Print(line)
		}
	}

	// Uniform random sampling with the same budget, for comparison.
	random := opts
	random.Algorithm = afex.Random
	rnd, err := afex.Explore(random)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("fitness-guided found %d failure-inducing faults; random found %d (%.1fx)\n",
		res.Failed, rnd.Failed, float64(res.Failed)/float64(max(1, rnd.Failed)))

	// Two runs sharing a state directory form one cumulative session:
	// the second run's budget is spent only on scenarios the first never
	// executed (its journal feeds a novelty filter), and a killed run
	// resumes with Resume: true.
	if opts.StateDir, err = os.MkdirTemp("", "afex-quickstart-state"); err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(opts.StateDir)
	if _, err := afex.Explore(opts); err != nil {
		fmt.Println(err)
		return
	}
	opts.Iterations = 500 // whole-session budget: 250 more tests
	opts.Resume = true    // continue the search where run 1 stopped
	cum, err := afex.Explore(opts)
	if err != nil {
		fmt.Println(err)
		return
	}
	entries, err := afex.ReplayJournal(opts.StateDir)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("persistent session: %d tests journaled across 2 runs, %d unique failure clusters\n",
		len(entries), cum.UniqueFailures)
	// Output:
	// exploring coreutils: 29 tests, fault space of 1653 points
	// AFEX session report
	//   target        coreutils
	//   algorithm     fitness
	//   fault space   1653 points
	//   tests         250 executed, 102 injected
	//   failures      62 (18 unique)
	//   crashes       0 (0 unique), hangs 0
	//   coverage      86.94% (recovery code 42.50%)
	//   axis sensitivities: 0.19, 0.29, 0.52
	//   top 5 faults by severity:
	//     impact=   33.0 cluster=  1 testID 27 function write callNumber 1
	//     impact=   28.0 cluster= -1 testID 10 function stat callNumber 0
	//     impact=   28.0 cluster= -1 testID 13 function close callNumber 2
	//     impact=   27.0 cluster= -1 testID 1 function opendir callNumber 2
	//     impact=   24.0 cluster= -1 testID 26 function write callNumber 2
	// fitness-guided found 62 failure-inducing faults; random found 29 (2.1x)
	// persistent session: 500 tests journaled across 2 runs, 31 unique failure clusters
}

// Example_mysqlCrashHunt reproduces §7.1: hunt for crash-inducing faults
// in the MySQL-like target until both planted recovery bugs are found,
// then characterize them the way AFEX presents results to developers:
// the injection-point stack trace, a generated reproduction script, and
// the impact precision (reproducibility) of its redundancy cluster's
// representative, re-run on the model backend by Result.MeasurePrecision.
// The two bugs mirror the paper's finds:
//   - mysql-bug-53268: mi_create's single recovery label releases
//     THR_LOCK_myisam a second time when my_close fails (Fig. 6);
//   - mysql-bug-25097: a failed errmsg.sys read is logged, then the
//     uninitialized message table is used anyway.
func Example_mysqlCrashHunt() {
	target, err := afex.Target("mysqld")
	if err != nil {
		fmt.Println(err)
		return
	}
	space := afex.SpaceFor(target, 19, 1, 100)
	fmt.Printf("hunting crashes in %s: %d tests, fault space of %d points (%.1fM)\n",
		target.Name, len(target.TestSuite), space.Size(), float64(space.Size())/1e6)

	// Search target: stop once both planted bugs have manifested, or
	// after 20,000 tests, whichever comes first ("find 3 disk faults
	// that hang the DBMS"-style thresholds are the paper's example of a
	// search target). Observe watches each record for the wanted crash
	// identities; Stop ends the session when both have been seen.
	wanted := []string{targets.BugMySQLDoubleUnlock, targets.BugMySQLErrmsg}
	found := map[string]bool{}
	res, err := afex.Explore(afex.Options{
		Target:     target,
		Space:      space,
		Algorithm:  afex.FitnessGuided,
		Iterations: 20000,
		Feedback:   true, // steer away from re-manifestations (§7.4)
		Explore:    afex.ExploreOptions{Seed: 7},
		Observe: func(rec afex.Record) {
			if slices.Contains(wanted, rec.Outcome.CrashID) {
				found[rec.Outcome.CrashID] = true
			}
		},
		Stop: func(afex.Snapshot) bool { return len(found) == len(wanted) },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("executed %d tests: %d failures, %d crashes in %d redundancy clusters\n",
		res.Executed, res.Failed, res.Crashed, res.UniqueCrashes)

	// Impact precision (§5): re-run each cluster representative 5 times;
	// the model target is deterministic, so variance is 0 and precision
	// +Inf — exactly the reproducible kind of failure worth debugging
	// first.
	runner, err := backend.New(backend.Model, backend.Config{Target: target})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer runner.Close()
	precision := map[int]float64{} // by failure cluster
	for _, rep := range res.MeasurePrecision(runner, afex.DefaultImpact(), 5) {
		precision[rep.Cluster] = rep.Precision
	}
	for _, bug := range wanted {
		i := slices.IndexFunc(res.Records, func(rec afex.Record) bool { return rec.Outcome.CrashID == bug })
		if i < 0 {
			fmt.Printf("bug %s: NOT found within budget\n", bug)
			continue
		}
		rec := res.Records[i]
		fmt.Printf("bug %s: %d manifestation(s)\n", bug, res.CrashIDs[bug])
		fmt.Printf("  first scenario: %s\n", rec.Scenario)
		fmt.Printf("  stack at injection point: %s\n", strings.Join(rec.Outcome.InjectionStack, " "))
		fmt.Printf("  impact precision of its cluster over 5 trials: %v\n", precision[rec.Cluster])
		fmt.Printf("  generated reproduction script:\n    %s\n",
			strings.ReplaceAll(strings.TrimSuffix(res.ReproScript(rec), "\n"), "\n", "\n    "))
	}
	// Output:
	// hunting crashes in mysqld: 1147 tests, fault space of 2179300 points (2.2M)
	// executed 6153 tests: 1550 failures, 324 crashes in 48 redundancy clusters
	// bug mysql-bug-53268-double-unlock: 1 manifestation(s)
	//   first scenario: testID 187 function close callNumber 7
	//   stack at injection point: myisam!myisam_mi_create close:b2418
	//   impact precision of its cluster over 5 trials: +Inf
	//   generated reproduction script:
	//     #!/bin/sh
	//     # AFEX-generated reproduction: mysqld, scenario #6152
	//     # outcome: failed=true crashed=true hung=false impact=21.0
	//     # stack at injection point:
	//     #   myisam!myisam_mi_create
	//     #   close:b2418
	//     exec afex replay --target mysqld --scenario 'testID 187 function close callNumber 7'
	// bug mysql-bug-25097-errmsg: 5 manifestation(s)
	//   first scenario: testID 948 function read callNumber 3
	//   stack at injection point: server!server_srv_boot read:b2409
	//   impact precision of its cluster over 5 trials: +Inf
	//   generated reproduction script:
	//     #!/bin/sh
	//     # AFEX-generated reproduction: mysqld, scenario #886
	//     # outcome: failed=true crashed=true hung=false impact=21.0
	//     # stack at injection point:
	//     #   server!server_srv_boot
	//     #   read:b2409
	//     exec afex replay --target mysqld --scenario 'testID 948 function read callNumber 3'
}
