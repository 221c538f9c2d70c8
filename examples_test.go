package afex_test

import (
	"fmt"
	"strings"

	"afex"
	"afex/internal/prog"
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
