package controlplane_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"afex/internal/controlplane"
	"afex/internal/trace"
)

// FuzzSessionSpec: the body of POST /v1/sessions is bytes from outside
// the process. Whatever they are, decoding and resolving them must not
// panic, and yields either an error or a plan with a non-empty space
// and the options of exactly one mode. Resolve is pure, so nothing the
// corpus names — a cmd: target, a state directory, a listen address —
// is run, made or bound: the target never opens a plan, and checks that
// the one state directory its seeds name stays absent.
func FuzzSessionSpec(f *testing.F) {
	const crashy = `testID : [ 0 , 3 ]  function : { open , read , malloc , write }  callNumber : [ 1 , 3 ] ;`
	stateDir := f.TempDir() + "/state"
	seed := func(spec controlplane.SessionSpec) {
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// the README's curl bodies and submit.golden's spec
	f.Add([]byte(`{"target": "mysqld", "iterations": 500, "seed": 7, "stateDir": "` + stateDir + `"}`))
	f.Add([]byte(`{"target": "mysqld", "serve": ":7070", "peers": 2, "peer": 0, "iterations": 250, "heartbeat": "1s"}`))
	seed(controlplane.SessionSpec{Target: "mysqld", Iterations: 40, Seed: 5})
	// a body written for a build that had the prefetch ring: the key is ignored
	f.Add([]byte(`{"target": "httpd", "feedback": true, "prefetch": -1}`))
	// a real-process session, as CI's control-plane step submits it
	seed(controlplane.SessionSpec{Target: "cmd:/nonexistent/crashy {test}", Space: crashy,
		Timeout: "1s", Algorithm: "exhaustive", StateDir: stateDir, TestArgs: []string{"--row 0"}})
	// the space description language, through "space"
	for _, space := range []string{
		"function : { malloc, calloc, realloc }\nerrno : { ENOMEM }\nretval : { 0 }\ncallNumber : [ 1 , 100 ] ;",
		"io function : { read , write } callNumber : < 1 , 9 > ; mem function : { malloc } callNumber : [ 0 , 3 ] ;",
		" ", "function : {", ";",
	} {
		seed(controlplane.SessionSpec{Target: "coreutils", Space: space})
	}
	// the profiled shapes
	seed(controlplane.SessionSpec{Target: "coreutils", Shape: trace.Shape{Pairs: true, Funcs: 4, CallHi: 100000}, Shards: 4, Workers: 2})
	seed(controlplane.SessionSpec{Target: "httpd", Shape: trace.Shape{ErrnoAxis: true, CallLo: 9, CallHi: 3}, Feedback: true})
	seed(controlplane.SessionSpec{Target: "mysqld", Shape: trace.Shape{CallHi: math.MaxInt64}})
	// one per refusal
	seed(controlplane.SessionSpec{})
	seed(controlplane.SessionSpec{Target: "nope"})
	// bodies written for a build that had backend, batch and testsPerProc
	// keys: the keys are ignored, and the backend follows the target
	f.Add([]byte(`{"target": "mysqld", "backend": "process", "batch": 16, "testsPerProc": -1}`))
	f.Add([]byte(`{"target": "cmd:./crashy {test}", "backend": "model", "space": "` + crashy + `"}`))
	seed(controlplane.SessionSpec{Target: "cmd:./crashy {test}"})
	seed(controlplane.SessionSpec{Target: "cmd:", Space: crashy})
	seed(controlplane.SessionSpec{Target: "mysqld", Resume: true})
	seed(controlplane.SessionSpec{Target: "mysqld", TimeBudget: "soon"})
	// a body written for a build that had lease and heartbeat knobs: the keys are ignored
	f.Add([]byte(`{"target": "mysqld", "leaseTimeout": "-1s", "heartbeat": "1s", "heartbeatMisses": 2}`))
	seed(controlplane.SessionSpec{Target: "mysqld", Serve: ":0", Workers: 4, Procs: 2})
	// a local session wider than any machine: refused, never started
	f.Add([]byte(`{"target": "mysqld", "procs": 2000000000}`))
	seed(controlplane.SessionSpec{Target: "coreutils", Workers: controlplane.MaxParallel + 1})
	f.Add([]byte(`{"target": "mysqld", "serve": ":0", "backend": "qemu", "peers": 2, "peer": -1}`))
	f.Add([]byte(`{"target": 7}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec controlplane.SessionSpec
		if json.NewDecoder(bytes.NewReader(data)).Decode(&spec) != nil {
			return
		}
		p, err := spec.Resolve()
		if _, statErr := os.Stat(stateDir); statErr == nil {
			t.Fatalf("resolving %q created %s", data, stateDir)
		}
		if err != nil {
			return
		}
		space, other := p.Options.Space, p.Coordinator.Space
		if p.Spec.Serve != "" {
			space, other = other, space
		}
		if space == nil || space.Size() <= 0 || other != nil {
			t.Fatalf("%q resolved to a plan with spaces %v / %v", data, space, other)
		}
		if o := p.Options; o.Workers > controlplane.MaxParallel || o.Procs > controlplane.MaxParallel {
			t.Fatalf("%q resolved to %d workers, %d procs", data, o.Workers, o.Procs)
		}
		for _, sub := range space.Spaces {
			for _, a := range sub.Axes {
				if a.Len() < 1 {
					t.Fatalf("%q resolved to a space whose axis %s has length %d", data, a.Name(), a.Len())
				}
			}
		}
	})
}
