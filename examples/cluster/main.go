// cluster: distributed exploration (§6.1, §7.7) on one machine.
//
// The explorer runs behind a TCP coordinator; four node managers connect,
// lease fault-injection tests, execute them against their local copy of
// the target, and report impact back. This is exactly the deployment the
// paper ran on EC2, shrunk to loopback. Managers are plain processes in
// production — here they are goroutines for a self-contained example.
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"sync"

	"afex"
)

func main() {
	target, err := afex.Target("httpd")
	if err != nil {
		log.Fatal(err)
	}
	space := afex.SpaceFor(target, 19, 1, 10)

	const budget = 600
	coord, _, err := afex.NewCoordinatorWithOptions(afex.CoordinatorOptions{
		Space:   space,
		Explore: afex.ExploreOptions{Seed: 99},
		Budget:  budget,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := afex.ServeCoordinator("127.0.0.1:0", coord)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("coordinator on %s, exploring %s (%d points, budget %d)\n",
		srv.Addr(), target.Name, space.Size(), budget)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mgr, err := afex.DialManager(srv.Addr(), fmt.Sprintf("mgr%02d", id), target)
			if err != nil {
				log.Printf("manager %d: %v", id, err)
				return
			}
			defer mgr.Close()
			n, err := mgr.RunUntilDone()
			if err != nil {
				log.Printf("manager %d: %v", id, err)
			}
			fmt.Printf("  manager mgr%02d executed %d tests\n", id, n)
		}(i)
	}
	wg.Wait()

	st := coord.Snapshot()
	fmt.Printf("\ncluster totals: executed=%d injected=%d failed=%d crashed=%d hung=%d\n",
		st.Executed, st.Injected, st.Failed, st.Crashed, st.Hung)
	fmt.Println("per-manager distribution:")
	for id, n := range st.PerManager {
		fmt.Printf("  %-8s %d\n", id, n)
	}
}
