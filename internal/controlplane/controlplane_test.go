package controlplane_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"afex/internal/cluster"
	"afex/internal/controlplane"
	"afex/internal/core"
	"afex/internal/rpcnode"
	"afex/internal/store"
	"afex/internal/targets"
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
	final, err := cl.Wait(st.ID, 50*time.Millisecond)
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
	if _, err := cl.Wait(st.ID, 20*time.Millisecond); err != nil {
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
	for _, key := range []string{"executed", "failed", "uniqueFailures", "pending", "waitingLeases", "coverage"} {
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
