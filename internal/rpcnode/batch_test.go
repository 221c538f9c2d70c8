package rpcnode

import (
	"fmt"
	"net"
	"net/rpc"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/store"
	"afex/internal/xrand"
)

func TestBlocksCodecRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		want := make(map[int]struct{})
		for i := 0; i < rng.Intn(40); i++ {
			want[rng.Intn(100000)] = struct{}{}
		}
		got := decodeBlocks(encodeBlocks(want))
		if len(want) == 0 {
			if got != nil {
				t.Fatalf("empty set decoded to %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip diverged: got %v want %v", got, want)
		}
	}
	if encodeBlocks(nil) != nil {
		t.Error("nil set must encode to nil")
	}
}

func TestStackHashSensitivity(t *testing.T) {
	a := stackHash([]string{"m!f", "m!g"})
	if b := stackHash([]string{"m!f", "m!g"}); b != a {
		t.Error("hash not stable")
	}
	if b := stackHash([]string{"m!fm", "!g"}); b == a {
		t.Error("hash ignores frame boundaries")
	}
	if b := stackHash([]string{"m!g", "m!f"}); b == a {
		t.Error("hash ignores frame order")
	}
}

// TestBatchedMatchesSingleTaskAndLocal is the wire-protocol parity
// contract: one ordered manager (Concurrency 1) must produce the
// identical ResultSet — tallies, per-record scenarios, impacts,
// cluster ids — whether it leases adaptively or one task at a time,
// and the same as a local sequential run, because all three fold the
// same candidates in the same order through the same engine.
func TestBatchedMatchesSingleTaskAndLocal(t *testing.T) {
	target := rpcTarget()

	local, err := core.Run(core.Config{
		Target:    target,
		Space:     rpcSpace(),
		Algorithm: "exhaustive",
	})
	if err != nil {
		t.Fatal(err)
	}

	runDistributed := func(batch int) *core.ResultSet {
		space := rpcSpace()
		coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
		srv, err := Serve("127.0.0.1:0", coord)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		mgr, err := Dial(srv.Addr(), "solo", target)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		mgr.Batch = batch
		mgr.Concurrency = 1
		if _, err := mgr.RunUntilDone(); err != nil {
			t.Fatal(err)
		}
		return coord.Result()
	}

	single := runDistributed(1)
	batched := runDistributed(0)

	for _, tc := range []struct {
		name string
		got  *core.ResultSet
	}{{"single-task", single}, {"batched", batched}} {
		if tc.got.Executed != local.Executed || tc.got.Failed != local.Failed ||
			tc.got.Crashed != local.Crashed || tc.got.Hung != local.Hung ||
			tc.got.Injected != local.Injected || tc.got.Holes != local.Holes {
			t.Errorf("%s tallies diverge from local: got executed=%d failed=%d crashed=%d injected=%d",
				tc.name, tc.got.Executed, tc.got.Failed, tc.got.Crashed, tc.got.Injected)
		}
		if tc.got.UniqueFailures != local.UniqueFailures || tc.got.UniqueCrashes != local.UniqueCrashes {
			t.Errorf("%s clusters diverge: %d/%d unique, local %d/%d",
				tc.name, tc.got.UniqueFailures, tc.got.UniqueCrashes, local.UniqueFailures, local.UniqueCrashes)
		}
		if len(tc.got.Records) != len(local.Records) {
			t.Fatalf("%s kept %d records, local %d", tc.name, len(tc.got.Records), len(local.Records))
		}
		for i := range tc.got.Records {
			d, l := tc.got.Records[i], local.Records[i]
			if d.Scenario != l.Scenario || d.Impact != l.Impact || d.Cluster != l.Cluster ||
				d.Plan.String() != l.Plan.String() {
				t.Errorf("%s record %d diverges: {%q %.1f c%d %q} vs local {%q %.1f c%d %q}",
					tc.name, i, d.Scenario, d.Impact, d.Cluster, d.Plan, l.Scenario, l.Impact, l.Cluster, l.Plan)
			}
		}
	}
}

// TestBatchedClusterParityFourManagers is the acceptance-criteria
// cluster check: a 4-manager adaptively batched, pipelined session
// over a fully swept space finds exactly the unique-failure clusters
// four managers leasing one task at a time do at equal budget. (Fold
// order differs between concurrent managers, so the comparison is
// set-shaped: tallies, cluster counts and crash identities.)
func TestBatchedClusterParityFourManagers(t *testing.T) {
	target := rpcTarget()
	run := func(batch int) *core.ResultSet {
		space := rpcSpace()
		coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
		srv, err := Serve("127.0.0.1:0", coord)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		done := make(chan error, 4)
		for i := 0; i < 4; i++ {
			go func(id int) {
				mgr, err := Dial(srv.Addr(), "m", target)
				if err != nil {
					done <- err
					return
				}
				defer mgr.Close()
				mgr.Batch = batch
				_, err = mgr.RunUntilDone()
				done <- err
			}(i)
		}
		for i := 0; i < 4; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		return coord.Result()
	}

	single := run(1)
	batched := run(0)
	if batched.Executed != single.Executed || batched.Failed != single.Failed ||
		batched.Crashed != single.Crashed || batched.Injected != single.Injected {
		t.Errorf("tallies diverge: batched executed=%d failed=%d crashed=%d, single executed=%d failed=%d crashed=%d",
			batched.Executed, batched.Failed, batched.Crashed, single.Executed, single.Failed, single.Crashed)
	}
	if batched.UniqueFailures != single.UniqueFailures || batched.UniqueCrashes != single.UniqueCrashes {
		t.Errorf("unique clusters diverge: batched %d/%d, single %d/%d",
			batched.UniqueFailures, batched.UniqueCrashes, single.UniqueFailures, single.UniqueCrashes)
	}
	if !reflect.DeepEqual(batched.CrashIDs, single.CrashIDs) {
		t.Errorf("crash identities diverge: %v vs %v", batched.CrashIDs, single.CrashIDs)
	}
}

// TestBatchedPersistentJournalEquivalence: a persistent adaptively
// batched session journals the same entries as a persistent Batch = 1
// one — scenario, outcome, plan, backend — record for record (ordered
// managers fold in candidate order, so even the order matches; the
// sort below only de-flakes the comparison contract to "modulo fold
// order", which is all concurrent sessions promise).
func TestBatchedPersistentJournalEquivalence(t *testing.T) {
	target := rpcTarget()
	journal := func(batch int) []store.Entry {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{
			Target:    target,
			Space:     rpcSpace(),
			Algorithm: "exhaustive",
		}
		if err := st.AttachNamed(&cfg, "rpc"); err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinatorConfig(cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve("127.0.0.1:0", coord)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		mgr, err := Dial(srv.Addr(), "solo", target)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		mgr.Batch = batch
		mgr.Concurrency = 1
		if _, err := mgr.RunUntilDone(); err != nil {
			t.Fatal(err)
		}
		coord.Result()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		path, err := store.JournalPath(dir)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := store.ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Key() < entries[j].Key() })
		return entries
	}

	single := journal(1)
	batched := journal(0)
	if len(single) != len(batched) {
		t.Fatalf("journal lengths diverge: single %d, batched %d", len(single), len(batched))
	}
	for i := range single {
		s, b := single[i].Record(), batched[i].Record()
		if s.Scenario != b.Scenario || s.Skipped != b.Skipped ||
			s.Outcome.Failed != b.Outcome.Failed || s.Outcome.Crashed != b.Outcome.Crashed ||
			s.Outcome.CrashID != b.Outcome.CrashID || s.Plan.String() != b.Plan.String() ||
			s.Backend != b.Backend || s.Impact != b.Impact || s.Cluster != b.Cluster {
			t.Errorf("journal entry %d diverges:\n  single  %+v\n  batched %+v", i, s, b)
		}
	}
}

// TestSingleLeaseMatchesSequentialWithFeedback: one manager at Batch = 1
// drives a fitness-guided explorer with §7.4 feedback through exactly
// the Next/Report alternation of a local sequential session, so the
// two sessions agree record for record. (The exhaustive parity tests
// above cannot see a lost alternation: enumeration ignores feedback.)
func TestSingleLeaseMatchesSequentialWithFeedback(t *testing.T) {
	target := rpcTarget()
	cfg := core.Config{
		Space:      benchRPCSpace(50),
		Algorithm:  "fitness",
		Explore:    explore.Config{Seed: 11},
		Feedback:   true,
		Iterations: 150,
	}
	localCfg := cfg
	localCfg.Target = target
	local, err := core.Run(localCfg)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := NewCoordinatorConfig(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := Dial(srv.Addr(), "solo", target)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.Batch = 1
	if _, err := mgr.RunUntilDone(); err != nil {
		t.Fatal(err)
	}
	dist := coord.Result()

	if len(dist.Records) != len(local.Records) {
		t.Fatalf("distributed kept %d records, local %d", len(dist.Records), len(local.Records))
	}
	for i := range dist.Records {
		d, l := dist.Records[i], local.Records[i]
		if d.Scenario != l.Scenario || d.Impact != l.Impact || d.Fitness != l.Fitness || d.Cluster != l.Cluster {
			t.Fatalf("record %d diverges: distributed {%q %.2f %.2f c%d}, local {%q %.2f %.2f c%d}",
				i, d.Scenario, d.Impact, d.Fitness, d.Cluster, l.Scenario, l.Impact, l.Fitness, l.Cluster)
		}
	}
}

// helloLess is a coordinator service without the Hello handshake.
type helloLess struct{ c *Coordinator }

func (s *helloLess) Heartbeat(managerID string, ack *bool) error {
	return s.c.Heartbeat(managerID, ack)
}

// TestDialWithoutHelloFails: a coordinator that does not serve the
// handshake is a dial error naming it, not a manager that connects and
// then cannot work.
func TestDialWithoutHelloFails(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	srv := rpc.NewServer()
	if err := srv.RegisterName("Coordinator", &helloLess{c: coord}); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()

	mgr, err := Dial(lis.Addr().String(), "modern", rpcTarget())
	if err == nil {
		mgr.Close()
		t.Fatal("dial against a coordinator without Hello succeeded")
	}
	if !strings.Contains(err.Error(), "Hello") {
		t.Errorf("dial error %q does not name the missing handshake", err)
	}
}

// TestHelloRejectsOlderManager: a peer offering a protocol generation
// below the coordinator's is refused at the handshake.
func TestHelloRejectsOlderManager(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	var reply HelloReply
	if err := coord.Hello(Hello{Manager: "old", Proto: protoBatched - 1}, &reply); err == nil {
		t.Fatal("a generation-1 manager was accepted")
	}
	if err := coord.Hello(Hello{Manager: "new", Proto: protoBatched}, &reply); err != nil || reply.Proto != protoBatched {
		t.Fatalf("current-generation handshake: proto %d, err %v", reply.Proto, err)
	}
}

// TestReportBatchDropsUnknownLeases: stale seqs in a batch are dropped
// (not errors), and the ack reports only the folded count.
func TestReportBatchDropsUnknownLeases(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	var ack BatchAck
	if err := coord.ReportBatch(ResultBatch{
		Manager: "m",
		Results: []ResultWire{{Seq: 99}, {Seq: 100}},
	}, &ack); err != nil {
		t.Fatalf("stale batch must not error: %v", err)
	}
	if ack.Folded != 0 {
		t.Errorf("folded %d results from stale seqs, want 0", ack.Folded)
	}
	if coord.Snapshot().Executed != 0 {
		t.Error("stale results inflated the executed count")
	}
}

// TestAdaptiveBatchSizing: a lease the manager leaves to the book
// (n = 0) tracks the latencies its lessees report — large for
// microsecond tests, 1 for tests slower than the round target — which
// surface in the snapshot; under a budget it is never more than a live
// manager's share of what is left.
func TestAdaptiveBatchSizing(t *testing.T) {
	space := faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 99),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 1, 30),
	))
	book, eng := newBook(t, space, 0)
	now := time.Unix(0, 0)
	for i := 1; i < 64; i++ {
		book.Beat(now, fmt.Sprint("m", i))
	}
	if got := len(book.Lease(now, "m0", 0, 0).Tasks); got != core.DefaultWireBatch {
		t.Errorf("cold batch = %d, want %d", got, core.DefaultWireBatch)
	}
	// observe reports perTest n times, the last with a lease the book sizes.
	observe := func(perTest time.Duration, n int) int {
		for i := 1; i < n; i++ {
			book.Lease(now, "m0", 1, perTest)
		}
		return len(book.Lease(now, "m0", 0, perTest).Tasks)
	}
	if got := observe(10*time.Microsecond, 50); got != core.MaxWireBatch {
		t.Errorf("fast-target batch = %d, want cap %d", got, core.MaxWireBatch)
	}
	if got := observe(2*time.Second, 200); got != 1 {
		t.Errorf("slow-target batch = %d, want 1", got)
	}
	snap := eng.Snapshot()
	if snap.AdaptiveBatch != 1 || snap.AvgTestNS == 0 {
		t.Errorf("snapshot lacks adaptive sizing: %+v", snap)
	}

	// Each row's budget is leased by a manager that then dies, so its
	// leases wait to be re-leased and the lease's size shows whole.
	for _, c := range []struct{ budget, managers, leased, want int }{
		{7, 0, 0, 7}, {7, 1, 0, 7}, {7, 2, 0, 4}, {7, 3, 0, 3}, {7, 64, 0, 1},
		{7, 2, 3, 2}, {7, 3, 5, 1}, {7, 1, 6, 1},
		{40, 2, 40, core.DefaultWireBatch}, // spent: only dead managers' leases are left to hand out
	} {
		book, _ := newBook(t, space, c.budget)
		if c.leased > 0 && len(book.Lease(now, "gone", c.leased, 0).Tasks) != c.leased {
			t.Fatalf("leased fewer than %d", c.leased)
		}
		later := now.Add(deathAfter)
		for i := 1; i < c.managers; i++ {
			book.Beat(later, fmt.Sprint("m", i))
		}
		if got := len(book.Lease(later, "m0", 0, 0).Tasks); got != c.want {
			t.Errorf("%d managers, %d of %d leased: batch %d, want %d", c.managers, c.leased, c.budget, got, c.want)
		}
	}
}

// TestStackInterningAcrossBatches: a manager ships a stack's frames
// once; later results with the same stack carry only the hash, and the
// coordinator resolves them from its intern table — clustering output
// is unchanged.
func TestStackInterningAcrossBatches(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := Dial(srv.Addr(), "solo", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.Batch = 2 // several batches over the 8-point space
	if _, err := mgr.RunUntilDone(); err != nil {
		t.Fatal(err)
	}
	if len(mgr.sentStacks) == 0 {
		t.Fatal("manager interned no stacks over an injecting sweep")
	}
	if len(coord.stacks) != len(mgr.sentStacks) {
		t.Errorf("coordinator interned %d stacks, manager sent %d", len(coord.stacks), len(mgr.sentStacks))
	}
	res := coord.Result()
	if res.UniqueFailures == 0 {
		t.Error("interned session lost its failure clusters")
	}
	// Interning must not have corrupted clustering: same ground truth
	// as the end-to-end test.
	if res.Failed != 6 || res.Crashed != 2 || res.Injected != 6 {
		t.Errorf("tallies = failed=%d crashed=%d injected=%d, want 6/2/6", res.Failed, res.Crashed, res.Injected)
	}
}

// TestBatchedWireLeaner measures real on-the-wire bytes per test and
// asserts that leasing in batches beats leasing one task per round
// trip.
func TestBatchedWireLeaner(t *testing.T) {
	single, _ := measureWireBytes(t, 1)
	batched, _ := measureWireBytes(t, 0)
	t.Logf("bytes/test: batch 1 %.0f, adaptive batch %.0f", single, batched)
	if batched >= single {
		t.Errorf("adaptive batches cost %.0f bytes/test, batch 1 %.0f — no wire win", batched, single)
	}
}
