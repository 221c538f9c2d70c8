// process-target: hunt a real binary's recovery bugs with the process
// execution backend and the adaptive portfolio explorer.
//
// Everything else in this repository runs simulated program models;
// this example runs the real thing: it builds the bundled fixture
// cmd/crashy (a tiny binary linked against the AFEX shim, with a
// planted crash, hang and orderly failure), describes its fault space
// in the Fig. 3 language, and lets the portfolio bandit split the
// budget across fitness/random/genetic arms while every test executes
// as a supervised subprocess — injection plans delivered over the arm
// pipe, stacks and coverage streamed back over the report pipe,
// timeouts folded as hangs and signaled exits as crashes.
//
// Run with: go run ./examples/process-target
package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"afex"
)

// crashy's fault space: its 4 tests × the four libc calls it guards ×
// call numbers 1..3 — 48 points, small enough to watch, big enough that
// the explorer's choices matter.
const space = `
	testID : [ 0 , 3 ]
	function : { open , read , malloc , write }
	callNumber : [ 1 , 3 ] ;
`

func main() {
	// A real-process target is just a binary; build the fixture the way
	// any test harness would.
	dir, err := os.MkdirTemp("", "afex-process-target-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "crashy")
	if out, err := exec.Command("go", "build", "-o", bin, "afex/cmd/crashy").CombinedOutput(); err != nil {
		log.Fatalf("building fixture: %v\n%s", err, out)
	}

	spec, err := afex.ParseCommandSpec("cmd:" + bin + " {test}")
	if err != nil {
		log.Fatal(err)
	}
	sp, err := afex.ParseSpace(space)
	if err != nil {
		log.Fatal(err)
	}

	res, err := afex.Explore(afex.Options{
		Backend:     afex.ProcessBackend,
		Command:     spec,
		Space:       sp,
		Algorithm:   afex.Portfolio, // let the bandit learn which arm pays
		Iterations:  48,
		ExecTimeout: time.Second, // the flush-log hang costs exactly this
		Workers:     4,
		Procs:       4,
		Explore:     afex.ExploreOptions{Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(res.Report(5))
	fmt.Println("\nunique failures, one representative each:")
	for _, rec := range res.Representatives() {
		fmt.Printf("  [%s %s %v] %s\n", rec.Backend, rec.ExitStatus, rec.Duration.Round(time.Millisecond), rec.Scenario)
		for _, fr := range rec.Outcome.InjectionStack {
			fmt.Printf("      %s\n", fr)
		}
	}
}
