// Command crashy is the bundled process-backend fixture: a tiny real
// binary, linked against the AFEX shim, whose planted recovery bugs the
// process backend finds end to end. It models the spectrum the paper's
// targets exhibit, one behaviour per test case:
//
//	test 0  read-config   open falls back cleanly (exit 1); a failed
//	                      read is retried once, a double failure exits 1
//	test 1  cache-init    the first malloc is unchecked — the process
//	                      kills itself (a crash cluster); the second
//	                      recovers cleanly (exit 1)
//	test 2  flush-log     a failed first write blocks forever (a hang
//	                      the supervisor's timeout converts to Hung);
//	                      the second write's error is tolerated
//	test 3  probe         every fault is tolerated (always exits 0)
//
// The test case is selected by the first argument (the {test} slot of
// the cmd: target spec). Run outside AFEX the shim is inert and every
// test passes. Explore it with:
//
//	go build -o /tmp/crashy ./cmd/crashy
//	afex explore --target "cmd:/tmp/crashy {test}" \
//	    --space "testID : [ 0 , 3 ]  function : { open , read , malloc , write }  callNumber : [ 1 , 3 ] ;" \
//	    --timeout 1s --iterations 48
package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"afex/shim"
)

func main() {
	test := 0
	if len(os.Args) > 1 {
		n, err := strconv.Atoi(os.Args[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashy: bad test id %q\n", os.Args[1])
			os.Exit(2)
		}
		test = n
	}
	shim.Serve(test, runTest)
}

// runTest dispatches one test case and returns its exit code; Serve
// turns that into the process exit (one-shot) or a per-scenario "done"
// report (worker mode).
func runTest(test int) int {
	switch test {
	case 0:
		return readConfig()
	case 1:
		return cacheInit()
	case 2:
		return flushLog()
	case 3:
		return probe()
	default:
		fmt.Fprintf(os.Stderr, "crashy: no test %d\n", test)
		return 2
	}
}

// readConfig: clean error handling end to end — open has a fallback
// path, read retries once then gives up with an orderly failure exit.
func readConfig() int {
	shim.Cover(1)
	if errno, _, failed := shim.Call("open"); failed {
		shim.Cover(2) // recovery: fall back to defaults, report, exit 1
		fmt.Fprintf(os.Stderr, "crashy: open config: %s\n", errno)
		return 1
	}
	for i := 0; i < 3; i++ {
		shim.Cover(3 + i)
		if _, _, failed := shim.Call("read"); failed {
			// One retry of the same call site; the injector fires per
			// call number, so the retry normally succeeds.
			if errno, _, failed := shim.Call("read"); failed {
				shim.Cover(6)
				fmt.Fprintf(os.Stderr, "crashy: read config: %s\n", errno)
				return 1
			}
		}
	}
	return 0
}

// cacheInit: the planted crash — the first malloc's return value is
// used unchecked (the Apache strdup pattern), so a fault there brings
// the whole process down on a signal.
func cacheInit() int {
	shim.Cover(10)
	if _, _, failed := shim.Call("malloc"); failed {
		// Unchecked: the nil "pointer" is dereferenced immediately.
		shim.Crash("crashy/unchecked-malloc")
		die()
	}
	shim.Cover(11)
	if errno, _, failed := shim.Call("malloc"); failed {
		shim.Cover(12) // clean recovery: release, report, orderly failure
		fmt.Fprintf(os.Stderr, "crashy: cache alloc: %s\n", errno)
		return 1
	}
	shim.Cover(13)
	return 0
}

// flushLog: the planted hang — the first write's error path waits on a
// retry condition that never signals (a blocking retry loop without a
// timeout).
func flushLog() int {
	shim.Cover(20)
	if _, _, failed := shim.Call("write"); failed {
		shim.Cover(21)
		time.Sleep(time.Hour) // the supervisor's timeout converts this to Hung
	}
	shim.Cover(22)
	if _, _, failed := shim.Call("write"); failed {
		shim.Cover(23) // tolerated: log data is best-effort
	}
	return 0
}

// probe: every fault on this path is harmless.
func probe() int {
	for i := 0; i < 2; i++ {
		shim.Cover(30 + i)
		shim.Call("open")
		shim.Call("read")
	}
	return 0
}
