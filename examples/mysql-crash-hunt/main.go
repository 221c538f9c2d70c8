// mysql-crash-hunt: reproduce §7.1 — hunt for crash-inducing faults in
// the MySQL-like target until both planted recovery bugs are found, then
// characterize them the way AFEX presents results to developers: the
// injection-point stack trace, a generated reproduction script, and the
// impact precision (reproducibility) of its redundancy cluster's
// representative, re-run on the model backend by Result.MeasurePrecision.
//
// The two bugs mirror the paper's finds:
//   - mysql-bug-53268: mi_create's single recovery label releases
//     THR_LOCK_myisam a second time when my_close fails (Fig. 6);
//   - mysql-bug-25097: a failed errmsg.sys read is logged, then the
//     uninitialized message table is used anyway.
//
// Run with: go run ./examples/mysql-crash-hunt
package main

import (
	"fmt"
	"log"

	"afex"
	"afex/internal/backend"
	"afex/internal/targets"
)

func main() {
	target, err := afex.Target("mysqld")
	if err != nil {
		log.Fatal(err)
	}
	space := afex.SpaceFor(target, 19, 1, 100)
	fmt.Printf("hunting crashes in %s: %d tests, fault space of %d points (%.1fM)\n\n",
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
			for _, bug := range wanted {
				if rec.Outcome.CrashID == bug {
					found[bug] = true
				}
			}
		},
		Stop: func(s afex.Snapshot) bool {
			return len(found) == len(wanted)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d tests: %d failures, %d crashes in %d redundancy clusters\n\n",
		res.Executed, res.Failed, res.Crashed, res.UniqueCrashes)

	// Impact precision (§5): re-run each cluster representative 5 times;
	// the model target is deterministic, so variance is 0 and precision
	// +Inf — exactly the reproducible kind of failure worth debugging
	// first.
	runner, err := backend.New(backend.Model, backend.Config{Target: target})
	if err != nil {
		log.Fatal(err)
	}
	defer runner.Close()
	precision := map[int]float64{} // by failure cluster
	for _, rep := range res.MeasurePrecision(runner, afex.DefaultImpact(), 5) {
		precision[rep.Cluster] = rep.Precision
	}

	for _, bug := range wanted {
		if res.CrashIDs[bug] == 0 {
			fmt.Printf("bug %s: NOT found within budget\n", bug)
			continue
		}
		rec, ok := findCrash(res, bug)
		if !ok {
			continue
		}
		fmt.Printf("bug %s: %d manifestation(s)\n", bug, res.CrashIDs[bug])
		fmt.Printf("  first scenario: %s\n", rec.Scenario)
		fmt.Printf("  stack at injection point:\n")
		for _, fr := range rec.Outcome.InjectionStack {
			fmt.Printf("    %s\n", fr)
		}

		fmt.Printf("  impact precision of its cluster over 5 trials: %v\n", precision[rec.Cluster])
		fmt.Printf("  generated reproduction script:\n")
		for _, line := range splitLines(res.ReproScript(rec)) {
			fmt.Printf("    %s\n", line)
		}
		fmt.Println()
	}
}

// findCrash returns the first record that manifested the given crash
// identity.
func findCrash(res *afex.Result, bug string) (afex.Record, bool) {
	for _, rec := range res.Records {
		if rec.Outcome.CrashID == bug {
			return rec, true
		}
	}
	return afex.Record{}, false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
