package controlplane_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"afex"
	"afex/internal/cluster"
	"afex/internal/controlplane"
	"afex/internal/core"
	"afex/internal/faultspace"
	"afex/internal/rpcnode"
	"afex/internal/store"
	"afex/internal/targets"
	"afex/internal/trace"
)

// startServer boots a control-plane server on an ephemeral port.
func startServer(t *testing.T) (*controlplane.Manager, *controlplane.Server, *controlplane.Client) {
	t.Helper()
	m := controlplane.NewManager()
	srv, err := controlplane.Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return m, srv, controlplane.NewClient(srv.Addr())
}

// TestLocalSessionOverHTTP drives a full local session through the HTTP
// API: submit, wait, status (with store stats), report, journal,
// metrics.
func TestLocalSessionOverHTTP(t *testing.T) {
	_, _, cl := startServer(t)
	dir := t.TempDir() + "/state"
	st, err := cl.Submit(controlplane.SessionSpec{
		Target:     "mysqld",
		Iterations: 40,
		Seed:       5,
		StateDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != controlplane.StateRunning && st.State != controlplane.StateDone {
		t.Fatalf("submit returned %+v", st)
	}
	if st.Mode != "local" {
		t.Fatalf("mode = %q, want local", st.Mode)
	}
	final, err := cl.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != controlplane.StateDone {
		t.Fatalf("final state = %q (%s), want done", final.State, final.Error)
	}
	if final.Snapshot.Executed != 40 {
		t.Fatalf("executed %d, want 40", final.Snapshot.Executed)
	}
	if final.Progress != final.Snapshot.Summary() {
		t.Fatalf("progress %q is not the shared Summary rendering %q", final.Progress, final.Snapshot.Summary())
	}
	if final.Snapshot.Failed == 0 || final.Snapshot.UniqueFailures == 0 {
		t.Fatalf("expected failures from the mysqld model, got %+v", final.Snapshot)
	}

	// Satellite: the status endpoint's "store" object is the exact
	// `afex stats --json` struct — field for field.
	want, err := store.ReadStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final.Store == nil || !reflect.DeepEqual(final.Store, want) {
		t.Fatalf("status store stats = %+v, want ReadStats %+v", final.Store, want)
	}

	// The journal endpoint serves the on-disk artifact byte for byte.
	got, err := cl.Journal(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	path, err := store.JournalPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, disk) {
		t.Fatalf("journal endpoint served %d bytes, on-disk journal is %d and differs", len(got), len(disk))
	}

	report, err := cl.Report(st.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "AFEX session report") {
		t.Fatalf("report = %q", report)
	}

	metrics, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`afex_sessions{state="done"} 1`,
		`afex_scenarios_total{session="` + st.ID + `"} 40`,
		`afex_unique_failure_clusters{session="` + st.ID + `"}`,
		`afex_pending_leases{session="` + st.ID + `"}`,
		`afex_worker_pool_recycles_total{session="` + st.ID + `"}`,
		// 40 scenarios stay under the periodic cadence: Finish's snapshot only.
		`afex_session_snapshots_total{session="` + st.ID + `"} 1`,
		"# TYPE afex_session_snapshot_seconds_total counter",
		"# TYPE afex_scenarios_per_second gauge",
		// the fold's skip of repeated coverage sets reports itself
		`afex_block_sets{session="` + st.ID + `"}`,
		"# TYPE afex_block_walks_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestRemovedSpecKeyIsIgnored: a spec body written for a build that had
// the prefetch ring still submits and runs — "prefetch" is an unknown
// key like any other.
func TestRemovedSpecKeyIsIgnored(t *testing.T) {
	_, srv, cl := startServer(t)
	resp, err := http.Post("http://"+srv.Addr()+"/v1/sessions", "application/json",
		strings.NewReader(`{"target": "mysqld", "iterations": 20, "seed": 5, "prefetch": -1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st controlplane.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit answered %s (decode: %v)", resp.Status, err)
	}
	final, err := cl.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != controlplane.StateDone || final.Snapshot.Executed != 20 {
		t.Fatalf("session ended %q (%s) with %d executed, want done with 20", final.State, final.Error, final.Snapshot.Executed)
	}
}

// TestRemovedSessionKnobsAreIgnored: a body written for a build whose
// sessions took a backend, a lease batch and a warm-worker quota still
// decodes and starts, those keys ignored like any unknown one, whatever
// they say: a process backend named for a model target, a batch on a
// coordinator.
func TestRemovedSessionKnobsAreIgnored(t *testing.T) {
	_, srv, cl := startServer(t)
	resp, err := http.Post("http://"+srv.Addr()+"/v1/sessions", "application/json",
		strings.NewReader(`{"target": "mysqld", "iterations": 20, "seed": 5, "workers": 2, "backend": "process", "batch": 16, "testsPerProc": -1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st controlplane.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit answered %s (decode: %v)", resp.Status, err)
	}
	final, err := cl.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != controlplane.StateDone || final.Snapshot.Executed != 20 || final.Backend != "model" {
		t.Fatalf("session ended %q (%s) with %d executed on %q, want done with 20 on the model", final.State, final.Error, final.Snapshot.Executed, final.Backend)
	}
	var spec controlplane.SessionSpec
	if err := json.Unmarshal([]byte(`{"target": "mysqld", "serve": ":0", "backend": "qemu", "batch": 8, "testsPerProc": -1}`), &spec); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Resolve(); err != nil {
		t.Fatalf("a coordinator body with the removed keys: %v", err)
	}
}

// TestShapeKeepsItsJSONNames: the embedded shape's fields keep their
// wire names, so a body that names them decodes into the shape, a spec
// marshals them flat, and Resolve turns the shape into the space the
// library's shorthand builds.
func TestShapeKeepsItsJSONNames(t *testing.T) {
	body := `{"target":"coreutils","funcs":4,"callLo":2,"callHi":5,"pairs":true,"errnoAxis":true}`
	var spec controlplane.SessionSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	if want := (trace.Shape{Funcs: 4, CallLo: 2, CallHi: 5, Pairs: true, ErrnoAxis: true}); spec.Shape != want {
		t.Fatalf("decoded shape %+v, want %+v", spec.Shape, want)
	}
	if raw, err := json.Marshal(spec); err != nil || string(raw) != body {
		t.Fatalf("marshalled %s (%v), want %s", raw, err, body)
	}
	p, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	target, _ := targets.ByName("coreutils")
	if got, want := faultspace.Signature(p.Options.Space), faultspace.Signature(afex.PairSpaceFor(target, 4, 5)); got != want {
		t.Fatalf("resolved %s, want the pair space %s", got, want)
	}
}

// TestStatusJSONSchema pins the wire schema: the status document's
// snapshot uses the shared core.Snapshot JSON tags and the store
// object decodes back into store.Stats without loss.
func TestStatusJSONSchema(t *testing.T) {
	_, srv, cl := startServer(t)
	dir := t.TempDir() + "/state"
	st, err := cl.Submit(controlplane.SessionSpec{Target: "mysqld", Iterations: 20, Seed: 3, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/v1/sessions/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Snapshot map[string]any  `json:"snapshot"`
		Store    json.RawMessage `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"executed", "failed", "uniqueFailures", "pending", "coverage"} {
		if _, ok := doc.Snapshot[key]; !ok {
			t.Errorf("snapshot missing %q: %v", key, doc.Snapshot)
		}
	}
	// Field-for-field: the endpoint's store JSON and a fresh marshal of
	// store.ReadStats (the `afex stats --json` body) are the same map.
	stats, err := store.ReadStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, _ := json.Marshal(stats)
	var got, want map[string]any
	if err := json.Unmarshal(doc.Store, &got); err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(wantRaw, &want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("status store JSON %v != stats --json %v", got, want)
	}
}

// TestEventsStreamAndStop exercises the SSE feed against a coordinator
// session with no budget (runs until stopped): the stream yields
// running statuses, stop seals the session, and the stream ends with a
// final event.
func TestEventsStreamAndStop(t *testing.T) {
	_, srv, cl := startServer(t)
	st, err := cl.Submit(controlplane.SessionSpec{
		Target: "mysqld",
		Serve:  "127.0.0.1:0",
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "coordinator" || st.Addr == "" {
		t.Fatalf("submit returned %+v, want a listening coordinator", st)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/v1/sessions/" + st.ID + "/events?interval=100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := make(chan controlplane.Status, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var s controlplane.Status
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s) == nil {
				events <- s
			}
		}
	}()
	first := <-events
	if first.State != controlplane.StateRunning {
		t.Fatalf("first event state = %q", first.State)
	}
	if _, err := cl.Stop(st.ID); err != nil {
		t.Fatal(err)
	}
	var last controlplane.Status
	for s := range events { // stream ends after the final event
		last = s
	}
	if last.State != controlplane.StateStopped {
		t.Fatalf("final event state = %q, want stopped", last.State)
	}
	if _, err := cl.Stop(st.ID); err != nil { // idempotent
		t.Fatal(err)
	}
}

// runCoordinatorSession submits a coordinator-mode session, drives it
// with in-process rpcnode managers, and returns the sealed result.
func runCoordinatorSession(t *testing.T, m *controlplane.Manager, spec controlplane.SessionSpec, managers int) *core.ResultSet {
	t.Helper()
	s, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	target, err := targets.ByName(spec.Target)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, managers)
	for i := 0; i < managers; i++ {
		go func(id int) {
			mgr, err := rpcnode.Dial(s.Addr(), "m", target)
			if err != nil {
				done <- err
				return
			}
			defer mgr.Close()
			// Single-task protocol: batched leasing prefetches candidates
			// ahead of fold feedback, which perturbs the seeded fitness
			// searches these tests pin cluster for cluster.
			mgr.Batch = 1
			_, err = mgr.RunUntilDone()
			done <- err
		}(i)
	}
	for i := 0; i < managers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-s.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("session never sealed after managers finished")
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("sealed session has no result")
	}
	return res
}

// TestTwoPeerCoordinatorsJointClusters is the multi-coordinator
// acceptance check: two peer coordinators over disjoint Shard regions,
// at half the budget each, jointly find at least as many unique failure
// clusters as a single coordinator with the full budget.
func TestTwoPeerCoordinatorsJointClusters(t *testing.T) {
	const budget = 120
	base := controlplane.SessionSpec{
		Target:    "mysqld",
		Seed:      7,
		Algorithm: "fitness",
	}

	// One node manager per coordinator keeps lease/fold order — and with
	// it the seeded fitness search — deterministic, so the cluster
	// comparison is stable run to run.
	single := controlplane.NewManager()
	defer single.StopAll()
	specSingle := base
	specSingle.Serve = "127.0.0.1:0"
	specSingle.Iterations = budget
	resSingle := runCoordinatorSession(t, single, specSingle, 1)

	peers := controlplane.NewManager()
	defer peers.StopAll()
	var results []*core.ResultSet
	for peer := 0; peer < 2; peer++ {
		spec := base
		spec.Serve = "127.0.0.1:0"
		spec.Iterations = budget / 2
		spec.Peer, spec.Peers = peer, 2
		results = append(results, runCoordinatorSession(t, peers, spec, 1))
	}

	// Joint uniqueness across both peers: one cluster set over every
	// failure stack either peer found, same threshold the engine uses.
	joint := cluster.NewSet(1)
	id := 0
	for _, res := range results {
		for _, rec := range res.Records {
			if rec.Outcome.Failed && len(rec.Outcome.InjectionStack) > 0 {
				joint.Add(id, rec.Outcome.InjectionStack)
				id++
			}
		}
	}
	if joint.Len() == 0 {
		t.Fatal("peer coordinators found no failure clusters at all")
	}
	if joint.Len() < resSingle.UniqueFailures {
		t.Fatalf("two peers at budget %d each found %d joint clusters, single coordinator at %d found %d",
			budget/2, joint.Len(), budget, resSingle.UniqueFailures)
	}
	// The regions really are disjoint: no scenario key appears in both.
	seen := map[string]int{}
	for peer, res := range results {
		for _, rec := range res.Records {
			if prev, ok := seen[rec.Point.Key()]; ok && prev != peer {
				t.Fatalf("point %s explored by both peers", rec.Point.Key())
			}
			seen[rec.Point.Key()] = peer
		}
	}
}

// TestPeerResumeOwnRegion: the peer assignment lands in meta.json, so a
// state directory resumes only as the peer that wrote it.
func TestPeerResumeOwnRegion(t *testing.T) {
	m := controlplane.NewManager()
	defer m.StopAll()
	dir := t.TempDir() + "/peer0"
	spec := controlplane.SessionSpec{
		Target:     "mysqld",
		Seed:       2,
		Serve:      "127.0.0.1:0",
		Iterations: 20,
		Peer:       0,
		Peers:      2,
		StateDir:   dir,
	}
	runCoordinatorSession(t, m, spec, 1)

	stats, err := store.ReadStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Peer != 0 || stats.Peers != 2 {
		t.Fatalf("meta records peer %d of %d, want 0 of 2", stats.Peer, stats.Peers)
	}

	// The wrong peer is rejected outright…
	bad := spec
	bad.Peer = 1
	bad.Resume = true
	if _, err := m.Submit(bad); err == nil || !strings.Contains(err.Error(), "peer shard") {
		t.Fatalf("submitting peer 1 against peer 0's directory: err = %v", err)
	}
	// …while the recorded peer resumes its own region.
	resume := spec
	resume.Resume = true
	s, err := m.Submit(resume)
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
	<-s.Done()
}

// TestCoordinatorHonoursFeedback: a coordinator spec's feedback used to
// be dropped on the way to the engine (CoordinatorOptions had no such
// field). With it on, some journaled record's fitness is its impact
// weighted down by similarity to an earlier stack.
func TestCoordinatorHonoursFeedback(t *testing.T) {
	m := controlplane.NewManager()
	defer m.StopAll()
	dir := t.TempDir() + "/state"
	runCoordinatorSession(t, m, controlplane.SessionSpec{
		Target:     "mysqld",
		Seed:       7,
		Serve:      "127.0.0.1:0",
		Iterations: 300,
		Feedback:   true,
		StateDir:   dir,
	}, 2)
	entries, err := store.ReadJournal(dir)
	if err != nil || len(entries) != 300 {
		t.Fatalf("journal of %d entries, want 300 (%v)", len(entries), err)
	}
	for _, e := range entries {
		if e.Fitness < e.Impact {
			return
		}
	}
	t.Fatal("feedback on, yet every journaled fitness equals its impact")
}

// TestCoordinatorHonoursTimeBudget: with no iteration budget over a
// space far larger than the time budget's worth of work, managers are
// told Done once the engine's deadline has passed — the field used to
// be dropped and they ran until stopped — and the session seals by
// itself, as a local one does, without Stop.
func TestCoordinatorHonoursTimeBudget(t *testing.T) {
	m := controlplane.NewManager()
	defer m.StopAll()
	s, err := m.Submit(controlplane.SessionSpec{
		Target:     "mysqld",
		Serve:      "127.0.0.1:0",
		Shape:      trace.Shape{CallHi: 1_000_000},
		TimeBudget: "300ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	target, err := targets.ByName("mysqld")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := rpcnode.Dial(s.Addr(), "m", target)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	ran := make(chan error, 1)
	go func() {
		_, err := mgr.RunUntilDone()
		ran <- err
	}()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the manager is still being handed work long after the time budget")
	}
	select {
	case <-s.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("the deadline stopped the engine, yet the session never sealed")
	}
	if st := s.Status(false); st.State != controlplane.StateDone {
		t.Fatalf("session sealed %q, want done", st.State)
	}
	if res, err := s.Result(); err != nil || res.Executed == 0 {
		t.Fatalf("sealed with %+v, %v", res, err)
	}
}

// TestCoordinatorSealsWhenSpaceDrained: a coordinator session with no
// iteration budget seals once its manager has drained the space, and
// Client.Wait, following the event stream, returns that sealed status.
func TestCoordinatorSealsWhenSpaceDrained(t *testing.T) {
	_, _, cl := startServer(t)
	dir := t.TempDir() + "/state"
	st, err := cl.Submit(controlplane.SessionSpec{
		Target:   "mysqld",
		Space:    "testID : [ 0 , 3 ]  function : { read , write }  callNumber : [ 1 , 2 ] ;",
		Serve:    "127.0.0.1:0",
		StateDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	target, err := targets.ByName("mysqld")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := rpcnode.Dial(st.Addr, "m", target)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if n, err := mgr.RunUntilDone(); err != nil || n != 16 {
		t.Fatalf("manager executed %d of the 16-point space (%v)", n, err)
	}
	final, err := cl.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != controlplane.StateDone || final.Snapshot.Executed != 16 || final.Snapshot.Pending != 0 {
		t.Fatalf("Wait returned %q with %d executed, %d pending; want done with 16, 0", final.State, final.Snapshot.Executed, final.Snapshot.Pending)
	}
	if final.Store == nil || final.Store.Entries != 16 {
		t.Fatalf("sealed status store stats %+v, want a 16-entry journal", final.Store)
	}
}

// TestWaitFailsWhenServerCloses: a session that never seals on its own
// (a coordinator with no budget and no managers) cannot outlive its
// server, and Wait says so instead of hanging.
func TestWaitFailsWhenServerCloses(t *testing.T) {
	srv, err := controlplane.Serve("127.0.0.1:0", controlplane.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	cl := controlplane.NewClient(srv.Addr())
	st, err := cl.Submit(controlplane.SessionSpec{Target: "mysqld", Serve: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := cl.Wait(st.ID)
		waited <- err
	}()
	srv.Close()
	select {
	case err := <-waited:
		if err == nil {
			t.Fatal("Wait returned no error for a session whose server closed before it sealed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Wait still blocked after the server closed")
	}
}

// TestResolveRefusals: every way a description can be wrong is found by
// the one resolver, with the message `afex explore` has always given
// where it had one, and a field the session's mode cannot honour is
// named, not dropped.
func TestResolveRefusals(t *testing.T) {
	const space = "testID : [ 0 , 3 ]  function : { open , read }  callNumber : [ 1 , 3 ] ;"
	for _, c := range []struct {
		name string
		spec controlplane.SessionSpec
		want string
	}{
		{"no target", controlplane.SessionSpec{}, `unknown target ""`},
		{"unknown target", controlplane.SessionSpec{Target: "nope"}, `unknown target "nope"`},
		{"cmd: target without a space", controlplane.SessionSpec{Target: "cmd:./crashy {test}"}, "cmd: targets need --space"},
		{"empty cmd: target", controlplane.SessionSpec{Target: "cmd:", Space: space}, "empty cmd: target spec"},
		{"resume without a state directory", controlplane.SessionSpec{Target: "mysqld", Resume: true}, "--resume requires --state-dir"},
		{"bad duration", controlplane.SessionSpec{Target: "mysqld", TimeBudget: "soon"}, "timeBudget"},
		{"bad space", controlplane.SessionSpec{Target: "mysqld", Space: "function : {"}, "dsl"},
		{"empty space", controlplane.SessionSpec{Target: "mysqld", Space: " "}, "fault space is empty"},
		{"axis too long to index", controlplane.SessionSpec{Target: "mysqld", Shape: trace.Shape{CallLo: 0, CallHi: math.MaxInt64}}, "axis callNumber"},
		{"negative callLo", controlplane.SessionSpec{Target: "mysqld", Shape: trace.Shape{CallLo: -1, CallHi: 3}}, "CallLo:-1"},
		{"callHi below callLo", controlplane.SessionSpec{Target: "httpd", Shape: trace.Shape{CallLo: 9, CallHi: 3, ErrnoAxis: true}}, "hi < lo"},
		{"DSL axis too long to index", controlplane.SessionSpec{Target: "mysqld", Space: "f : { a } n : [ 0 , 9223372036854775807 ] ;"}, "axis n"},
		{"serve with workers", controlplane.SessionSpec{Target: "mysqld", Serve: ":0", Workers: 4}, "workers configures a local executor"},
		{"serve with procs", controlplane.SessionSpec{Target: "mysqld", Serve: ":0", Procs: 2}, "procs configures"},
		{"serve with timeout", controlplane.SessionSpec{Target: "mysqld", Serve: ":0", Timeout: "1s"}, "timeout configures"},
		{"serve with testArgs", controlplane.SessionSpec{Target: "cmd:./crashy {test}", Space: space, Serve: ":0", TestArgs: []string{"a"}}, "testArgs configures"},
		{"workers above the ceiling", controlplane.SessionSpec{Target: "mysqld", Workers: controlplane.MaxParallel + 1}, "at most 1024"},
		{"procs above the ceiling", controlplane.SessionSpec{Target: "cmd:./crashy {test}", Space: space, Procs: 2000000000}, "procs 2000000000"},
	} {
		if p, err := c.spec.Resolve(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: resolved to %+v, %v; want an error containing %q", c.name, p, err, c.want)
		}
	}
	// One worker is what a coordinator session has anyway, not a local
	// executor's setting.
	if _, err := (controlplane.SessionSpec{Target: "mysqld", Serve: ":0", Workers: 1}).Resolve(); err != nil {
		t.Errorf("serve with one worker: %v", err)
	}
	// The ceiling itself is a width a local session takes.
	if _, err := (controlplane.SessionSpec{Target: "cmd:./crashy {test}", Space: space, Workers: controlplane.MaxParallel, Procs: controlplane.MaxParallel}).Resolve(); err != nil {
		t.Errorf("workers and procs at the ceiling: %v", err)
	}
}

// TestResolveNormalizesAndTouchesNothing: the plan carries the spec in
// canonical form and the options that run it, and getting there creates
// nothing — not the state directory, not the fixture's process.
func TestResolveNormalizesAndTouchesNothing(t *testing.T) {
	dir := t.TempDir()
	p, err := controlplane.SessionSpec{
		Target:   "cmd:/nonexistent/fixture  {test}",
		Space:    "testID : [ 0 , 3 ]  function : { open , read }  callNumber : [ 1 , 3 ] ;",
		TestArgs: []string{"--row 0", "--row 1"},
		Timeout:  "2s",
		StateDir: dir + "/state",
		Peers:    1,
		Peer:     0,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("resolving created %v", left)
	}
	want := controlplane.SessionSpec{
		Target:    "cmd:/nonexistent/fixture {test}",
		Algorithm: "fitness",
		Space:     p.Spec.Space,
		TestArgs:  []string{"--row 0", "--row 1"},
		Timeout:   "2s",
		StateDir:  dir + "/state",
	}
	if !reflect.DeepEqual(p.Spec, want) {
		t.Fatalf("normalized spec %+v, want %+v", p.Spec, want)
	}
	o := p.Options
	if o.Command == nil || o.Command.Target() != want.Target || !reflect.DeepEqual(o.Command.TestArgs, [][]string{{"--row", "0"}, {"--row", "1"}}) ||
		o.ExecTimeout != 2*time.Second || o.Space.Size() != 4*2*3 || o.StateDir != want.StateDir || o.Peers != 0 {
		t.Fatalf("options %+v (command %+v)", o, o.Command)
	}

	// An alias resolves to the name the state directory will record, and
	// a serve spec to coordinator options carrying what used to be lost.
	p, err = controlplane.SessionSpec{Target: "mysql", Serve: ":0", Feedback: true, TimeBudget: "1m", Peers: 2, Peer: 1, Shape: trace.Shape{Pairs: true, Funcs: 3, CallHi: 2}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	c := p.Coordinator
	if p.Spec.Target != "mysqld" || c.TargetName != "mysqld" || !c.Feedback || c.TimeBudget != time.Minute || c.Peer != 1 || c.Peers != 2 || p.Options.Space != nil {
		t.Fatalf("coordinator plan %+v", p)
	}
	target, _ := targets.ByName("mysqld")
	if got, want := c.Space.Size(), afex.PairSpaceFor(target, 3, 2).Size(); got != want {
		t.Fatalf("pairs space of %d points, want %d", got, want)
	}
}
