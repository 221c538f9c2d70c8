package rpcnode

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/prog"
	"afex/internal/targets"
)

// sumless is a runner whose outcomes carry no content sum, the way a
// manager built before there was one reports: its manager caches no
// encoding, and the coordinator's bytes-keyed table does all the work.
// When record is set it notes the sets it ran instead, sums intact.
type sumless struct {
	backend.Runner
	mu     sync.Mutex
	record map[uint64]int
}

func (r *sumless) Run(testID int, plan inject.Plan) (prog.Outcome, backend.Exec) {
	out, ex := r.Runner.Run(testID, plan)
	if r.record == nil {
		out.BlockSum = 0
		return out, ex
	}
	r.mu.Lock()
	r.record[out.BlockSum] = len(out.Blocks)
	r.mu.Unlock()
	return out, ex
}

func coreutilsSpace(p *prog.Program) *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, len(p.TestSuite)-1),
		faultspace.SetAxis("function", p.FunctionsUsed()[:8]...),
		faultspace.IntAxis("callNumber", 1, 12),
	))
}

// checkRecount is the fold's oracle for any schedule: walking the
// records in fold order and counting, per record, the blocks no earlier
// record covered must give every NewBlocks and the session's coverage —
// what the engine computed while skipping the sets it had seen. It also
// holds each outcome's sum to its set and returns the distinct non-empty
// sets as (sum, size) pairs.
func checkRecount(t *testing.T, res *core.ResultSet, numBlocks int) map[[2]uint64]bool {
	t.Helper()
	covered := map[int]struct{}{}
	sets := map[[2]uint64]bool{}
	for i := range res.Records {
		rec := &res.Records[i]
		fresh := 0
		for b := range rec.Outcome.Blocks {
			if _, seen := covered[b]; !seen {
				covered[b] = struct{}{}
				fresh++
			}
		}
		if rec.NewBlocks != fresh {
			t.Fatalf("record %d (%s): NewBlocks %d, a recount says %d", rec.ID, rec.Scenario, rec.NewBlocks, fresh)
		}
		if want := prog.SumBlocks(rec.Outcome.Blocks); rec.Outcome.BlockSum != want {
			t.Fatalf("record %d: sum %#x over a set that sums to %#x", rec.ID, rec.Outcome.BlockSum, want)
		}
		if len(rec.Outcome.Blocks) > 0 {
			sets[[2]uint64{rec.Outcome.BlockSum, uint64(len(rec.Outcome.Blocks))}] = true
		}
	}
	if numBlocks > 0 {
		if want := float64(len(covered)) / float64(numBlocks); res.Coverage != want {
			t.Errorf("coverage %v, a recount says %v", res.Coverage, want)
		}
	}
	return sets
}

// TestCoverageInternedAcrossManagers feeds one coordinator from a manager
// that caches its encodings and one whose runner computes no sums, both
// on one shared Program. Counted: the caching manager sorts and encodes
// once per distinct set it ran, the other caches nothing, the coordinator
// decodes once per distinct encoding it received from either, and its
// fold walks once per distinct set. The folded records must be what a
// recount says and carry the sets the model produces for their plans.
func TestCoverageInternedAcrossManagers(t *testing.T) {
	target := targets.Coreutils()
	space := coreutilsSpace(target)
	const budget = 2000
	cfg := core.Config{Space: space, Iterations: budget, Feedback: true}
	coord, err := NewCoordinatorConfig(cfg, explore.NewFitnessGuided(space, explore.Config{Seed: 11}), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ran := &sumless{record: map[uint64]int{}}
	var caching, legacy *Manager
	var wg sync.WaitGroup
	for _, id := range []string{"caching", "legacy"} {
		mgr, err := Dial(srv.Addr(), id, target)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		mgr.Batch = 16 // many small leases, so both managers get a share
		if id == "caching" {
			ran.Runner, mgr.runner, caching = mgr.runner, ran, mgr
		} else {
			mgr.runner, legacy = &sumless{Runner: mgr.runner}, mgr
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := mgr.RunUntilDone(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	res := coord.Result()
	per := coord.Snapshot().PerManager
	if res.Executed != budget || per["caching"] == 0 || per["legacy"] == 0 {
		t.Fatalf("executed %d of %d, per manager %v: both must have worked", res.Executed, budget, per)
	}
	sets := checkRecount(t, res, 0)
	delete(ran.record, 0)
	if len(caching.encoded) != len(ran.record) || len(ran.record) < 20 {
		t.Errorf("caching manager encoded %d sets, ran %d distinct ones", len(caching.encoded), len(ran.record))
	}
	if len(legacy.encoded) != 0 {
		t.Errorf("a manager whose runner computes no sums cached %d encodings", len(legacy.encoded))
	}
	if len(coord.covs) != len(sets) {
		t.Errorf("coordinator decoded %d encodings, the records hold %d distinct sets", len(coord.covs), len(sets))
	}
	if snap := coord.Engine().Snapshot(); snap.BlockWalks != len(sets) || snap.BlockSets != len(sets) {
		t.Errorf("fold walked %d times over %d remembered sets, the records hold %d distinct ones", snap.BlockWalks, snap.BlockSets, len(sets))
	}
	for enc, cov := range coord.covs {
		if !bytes.Equal(encodeBlocks(cov.Blocks), []byte(enc)) || cov.BlockSum != prog.SumBlocks(cov.Blocks) {
			t.Fatalf("interned entry %x holds %v (sum %#x)", enc, cov.Blocks, cov.BlockSum)
		}
	}
	for i := range res.Records {
		rec := &res.Records[i]
		if want := prog.Run(target, rec.TestID, rec.Plan); !reflect.DeepEqual(rec.Outcome.Blocks, want.Blocks) {
			t.Fatalf("record %d (%s): folded blocks %v, the model covers %v", i, rec.Scenario, rec.Outcome.Blocks, want.Blocks)
		}
	}
}

// TestCoverageCachingIsInvisible: one ordered manager, with and without
// sums, and a local sequential session fold the same candidates in the
// same order — so record for record the scores, the clusters and the
// session's coverage must be identical whether a set was encoded, decoded
// and walked once or every time.
func TestCoverageCachingIsInvisible(t *testing.T) {
	target := targets.Coreutils()
	run := func(sums bool) *core.ResultSet {
		space := coreutilsSpace(target)
		cfg := core.Config{Space: space, Iterations: 1500, Feedback: true}
		coord, err := NewCoordinatorConfig(cfg, explore.NewFitnessGuided(space, explore.Config{Seed: 4}), nil)
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
		mgr.Batch, mgr.Concurrency = 1, 1
		if !sums {
			mgr.runner = &sumless{Runner: mgr.runner}
		}
		if _, err := mgr.RunUntilDone(); err != nil {
			t.Fatal(err)
		}
		if sums == (len(mgr.encoded) == 0) {
			t.Fatalf("sums %v, yet the manager cached %d encodings", sums, len(mgr.encoded))
		}
		res := coord.Result()
		checkRecount(t, res, 0)
		return res
	}
	space := coreutilsSpace(target)
	local, err := core.Run(core.Config{Target: target, Space: space, Iterations: 1500, Feedback: true,
		Algorithm: "fitness", Explore: explore.Config{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	checkRecount(t, local, target.NumBlocks)
	for name, got := range map[string]*core.ResultSet{"caching": run(true), "legacy": run(false)} {
		if len(got.Records) != len(local.Records) || got.UniqueFailures != local.UniqueFailures {
			t.Fatalf("%s: %d records and %d clusters, local %d and %d", name, len(got.Records), got.UniqueFailures, len(local.Records), local.UniqueFailures)
		}
		for i := range got.Records {
			d, l := got.Records[i], local.Records[i]
			if d.Scenario != l.Scenario || d.NewBlocks != l.NewBlocks || d.Impact != l.Impact || d.Fitness != l.Fitness ||
				d.Cluster != l.Cluster || d.Outcome.BlockSum != l.Outcome.BlockSum || !reflect.DeepEqual(d.Outcome.Blocks, l.Outcome.Blocks) {
				t.Fatalf("%s record %d diverges from the local session:\n got %+v\nwant %+v", name, i, d, l)
			}
		}
	}
}

// FuzzDecodeBlocks: the decoder the coordinator's bytes-keyed table sits
// in front of. Arbitrary bytes never panic and never decode to more
// blocks than they have bytes; whatever set they decode to has exactly one
// canonical encoding, which round-trips byte for byte (so two managers
// that ran the same set always meet in one entry, and bytes that are not
// canonical only ever cost a second entry); and an interned entry holds
// its own copy of the key, untouched when the RPC buffer is reused.
func FuzzDecodeBlocks(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(encodeBlocks(map[int]struct{}{1: {}, 2: {}, 3: {}}))
	f.Add(encodeBlocks(map[int]struct{}{7: {}, 300: {}, 70000: {}, 1 << 40: {}}))
	f.Add([]byte{0x01, 0x00, 0x00})       // zero deltas: a repeated block
	f.Add([]byte{0x81, 0x00, 0x05})       // a padded uvarint
	f.Add([]byte{0x05, 0x80})             // a torn tail
	f.Add(bytes.Repeat([]byte{0xff}, 11)) // an overlong uvarint
	target := targets.Coreutils()
	for testID := range target.TestSuite[:4] {
		out, _ := target.FaultFree(testID)
		f.Add(encodeBlocks(out.Blocks))
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		set := decodeBlocks(enc)
		if len(set) > len(enc) {
			t.Fatalf("%d bytes decoded to %d blocks", len(enc), len(set))
		}
		canon := encodeBlocks(set)
		if again := decodeBlocks(canon); !reflect.DeepEqual(again, set) && len(set) > 0 {
			t.Fatalf("%x decodes to %v, whose encoding %x decodes to %v", enc, set, canon, again)
		}
		if twice := encodeBlocks(decodeBlocks(canon)); !bytes.Equal(twice, canon) {
			t.Fatalf("canonical %x re-encodes as %x", canon, twice)
		}

		c := Coordinator{covs: map[string]prog.Outcome{}}
		buf := append([]byte(nil), enc...)
		first := c.coverage(buf)
		for i := range buf {
			buf[i] ^= 0x5a // the RPC layer reuses its buffer
		}
		second := c.coverage(enc)
		if !reflect.DeepEqual(first.Blocks, set) || first.BlockSum != prog.SumBlocks(set) {
			t.Fatalf("%x interned as %v (sum %#x), decodes to %v", enc, first.Blocks, first.BlockSum, set)
		}
		if reflect.ValueOf(first.Blocks).Pointer() != reflect.ValueOf(second.Blocks).Pointer() || len(c.covs) != 1 {
			t.Fatalf("%x: the second arrival did not find the first's entry (%d entries)", enc, len(c.covs))
		}
		for key := range c.covs {
			if key != string(enc) {
				t.Fatalf("interned key %x changed with the buffer, want %x", key, enc)
			}
		}
	})
}

// TestCoverageTableIsBounded: past maxInternedSets entries a new
// encoding is decoded for its result and not remembered.
func TestCoverageTableIsBounded(t *testing.T) {
	c := Coordinator{covs: map[string]prog.Outcome{}}
	for i := 1; i <= maxInternedSets+10; i++ {
		enc := encodeBlocks(map[int]struct{}{i: {}, i + 1<<20: {}})
		if cov := c.coverage(enc); len(cov.Blocks) != 2 || cov.BlockSum == 0 {
			t.Fatal(fmt.Sprint("set ", i, " decoded to ", cov))
		}
	}
	if len(c.covs) != maxInternedSets {
		t.Errorf("table holds %d entries, bound %d", len(c.covs), maxInternedSets)
	}
}
