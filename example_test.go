package afex_test

import (
	"fmt"
	"sync"

	"afex"
)

// ExampleExplore demonstrates the minimal exploration workflow on the
// built-in coreutils target. Sessions are deterministic for a fixed
// seed, so the output is stable.
func ExampleExplore() {
	target, _ := afex.Target("coreutils")
	space := afex.SpaceFor(target, 19, 0, 2)
	res, _ := afex.Explore(afex.Options{
		Target:     target,
		Space:      space,
		Algorithm:  afex.FitnessGuided,
		Iterations: 100,
		Explore:    afex.ExploreOptions{Seed: 7},
	})
	fmt.Println("space:", space.Size())
	fmt.Println("executed:", res.Executed)
	fmt.Println("found failures:", res.Failed > 10)
	// Output:
	// space: 1653
	// executed: 100
	// found failures: true
}

// ExampleParseSpace shows the Fig. 3 fault-space description language:
// a union of two subspaces, sets in braces, intervals in brackets.
func ExampleParseSpace() {
	space, err := afex.ParseSpace(`
        mem_faults
        function : { malloc, calloc, realloc }
        errno : { ENOMEM }
        retval : { 0 }
        callNumber : [ 1 , 100 ] ;

        io_faults
        function : { read }
        errno : { EINTR }
        retVal : { -1 }
        callNumber : [ 1 , 50 ] ;
    `)
	if err != nil {
		fmt.Println("parse error:", err)
		return
	}
	fmt.Println("subspaces:", len(space.Spaces))
	fmt.Println("total faults:", space.Size())
	// Output:
	// subspaces: 2
	// total faults: 350
}

// ExampleProfile shows the fault-space definition methodology: profile
// the suite (the ltrace step), then derive the explorable space.
func ExampleProfile() {
	target, _ := afex.Target("httpd")
	sp := afex.Profile(target)
	fmt.Println("tests:", sp.Tests)
	fmt.Println("baseline failures:", sp.FailedBaseline)
	fmt.Println("Φ_Apache:", afex.SpaceFor(target, 19, 1, 10).Size())
	// Output:
	// tests: 58
	// baseline failures: 0
	// Φ_Apache: 11020
}

// ExampleServeCoordinator is the paper's cluster deployment (§6.1,
// §7.7) on loopback: a coordinator serves the explorer over TCP, and
// four node managers, each with its own copy of the target, lease tests,
// run them and report back. An exhaustive sweep runs every point of the
// space once, whichever manager runs it, so the totals are stable.
func ExampleServeCoordinator() {
	target, _ := afex.Target("httpd")
	space := afex.SpaceFor(target, 19, 1, 2)
	coord, _, err := afex.NewCoordinatorWithOptions(afex.CoordinatorOptions{
		TargetName: target.Name,
		Space:      space,
		Algorithm:  afex.Exhaustive,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	srv, err := afex.ServeCoordinator("127.0.0.1:0", coord)
	if err != nil {
		fmt.Println(err)
		return
	}
	ran := make([]int, 4)
	var wg sync.WaitGroup
	for i := range ran {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mgr, err := afex.DialManager(srv.Addr(), fmt.Sprintf("mgr%d", i), target)
			if err != nil {
				fmt.Println(err)
				return
			}
			defer mgr.Close()
			ran[i], _ = mgr.RunUntilDone()
		}()
	}
	wg.Wait()
	srv.Close()
	res := coord.Result()
	fmt.Println("space:", space.Size())
	fmt.Println("reported by the managers:", ran[0]+ran[1]+ran[2]+ran[3])
	fmt.Printf("executed=%d injected=%d failed=%d crashed=%d\n", res.Executed, res.Injected, res.Failed, res.Crashed)
	// Output:
	// space: 2204
	// reported by the managers: 2204
	// executed=2204 injected=879 failed=496 crashed=141
}
