package rpcnode

import (
	"errors"
	"net"
	"net/rpc"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/prog"
)

// batchCounter is a model runner with a batch entry that notes the size
// of every batch it is handed.
type batchCounter struct {
	backend.Runner
	mu    sync.Mutex
	sizes []int
}

func (b *batchCounter) RunBatch(tests []backend.Test, emit func(i int, out prog.Outcome, ex backend.Exec)) {
	b.mu.Lock()
	b.sizes = append(b.sizes, len(tests))
	b.mu.Unlock()
	for i, t := range tests {
		out, ex := b.Runner.Run(t.TestID, t.Plan)
		emit(i, out, ex)
	}
}

func init() {
	backend.Register("batch-counter", func(cfg backend.Config) (backend.Runner, error) {
		r, err := backend.New(backend.Model, cfg)
		return &batchCounter{Runner: r}, err
	})
}

// TestManagerArmsEachLeaseWhole: a manager runs the engine's worker
// loop, so a backend that takes batches gets each lease as one — the
// warm pool's batch arming reaches tests leased over the wire.
func TestManagerArmsEachLeaseWhole(t *testing.T) {
	space := benchRPCSpace(50)
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := DialBackend(srv.Addr(), "armed", "batch-counter", backend.Config{Target: rpcTarget()})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.Batch, mgr.Concurrency = 8, 1
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	if n != int(space.Size()) {
		t.Fatalf("reported %d tests, want the whole %d-point space", n, space.Size())
	}
	b := mgr.runner.(*batchCounter)
	armed := 0
	for _, size := range b.sizes {
		if size < 2 {
			t.Fatalf("a lease of 8 reached the runner as batches of %v", b.sizes)
		}
		armed += size
	}
	if armed != n {
		t.Errorf("batches of %v armed %d tests, the manager ran %d", b.sizes, armed, n)
	}
}

// TestConcurrentLoopsLeaseOnce: a manager's worker loops share one
// lease source — one NextBatch in flight, one report at a time — and
// between them execute every point of the space exactly once, with the
// tallies of a local sweep.
func TestConcurrentLoopsLeaseOnce(t *testing.T) {
	space := benchRPCSpace(50)
	local, err := core.Run(core.Config{Target: rpcTarget(), Space: benchRPCSpace(50), Algorithm: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mgr, err := Dial(srv.Addr(), "loops", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.Batch, mgr.Concurrency = 3, 4
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	res := coord.Result()
	if n != int(space.Size()) || res.Executed != n || len(coord.book.leases) != 0 {
		t.Fatalf("reported %d, folded %d, %d leases outstanding; want the %d-point space", n, res.Executed, len(coord.book.leases), space.Size())
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Point.Key()] {
			t.Fatalf("point %s executed twice", rec.Point.Key())
		}
		seen[rec.Point.Key()] = true
	}
	if res.Failed != local.Failed || res.Crashed != local.Crashed || res.Injected != local.Injected || res.UniqueFailures != local.UniqueFailures {
		t.Errorf("tallies failed=%d crashed=%d injected=%d unique=%d, local %d/%d/%d/%d",
			res.Failed, res.Crashed, res.Injected, res.UniqueFailures, local.Failed, local.Crashed, local.Injected, local.UniqueFailures)
	}
}

// fakeCoordinator answers Retry to the first retries NextBatch calls,
// then serves a fixed list of tasks in one lease, then Done, and keeps
// what is reported and how many calls came after its Done.
type fakeCoordinator struct {
	axisNames [][]string
	beat      time.Duration
	tasks     []TaskWire
	retries   int
	mu        sync.Mutex
	leased    bool
	done      bool
	afterDone int
	results   []ResultWire
}

func (f *fakeCoordinator) Hello(h Hello, reply *HelloReply) error {
	reply.Proto, reply.AxisNames, reply.Heartbeat = protoBatched, f.axisNames, f.beat
	return nil
}

func (f *fakeCoordinator) NextBatch(req BatchRequest, batch *TaskBatch) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.retries > 0:
		f.retries--
		batch.Retry, batch.RetryAfterMS = true, 1
	case f.leased:
		if f.done {
			f.afterDone++
		}
		f.done, batch.Done = true, true
	default:
		f.leased, batch.Tasks = true, f.tasks
	}
	return nil
}

func (f *fakeCoordinator) ReportBatch(rb ResultBatch, ack *BatchAck) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.results = append(f.results, rb.Results...)
	ack.Folded = len(rb.Results)
	return nil
}

func (f *fakeCoordinator) Heartbeat(string, *bool) error { return nil }

// TestMalformedTasksAreSkipped: a task whose values do not match its
// subspace's axes — too few, too many, or a subspace the handshake never
// named — is reported as a skip for its seq, and the manager runs the
// rest of its lease.
func TestMalformedTasksAreSkipped(t *testing.T) {
	fake := &fakeCoordinator{
		axisNames: [][]string{{"testID", "function", "callNumber"}},
		tasks: []TaskWire{
			{Seq: 1, Sub: 0, Fault: []int{1}, Vals: nil},
			{Seq: 2, Sub: 0, Fault: []int{2}, Vals: []string{"0"}},
			{Seq: 3, Sub: 0, Fault: []int{0, 0, 0}, Vals: []string{"0", "read", "1"}},
			{Seq: 4, Sub: 0, Fault: []int{4}, Vals: []string{"0", "read", "1", "9"}},
			{Seq: 5, Sub: 7, Fault: []int{0, 0, 0}, Vals: []string{"0", "read", "1"}},
		},
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Coordinator", fake); err != nil {
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
	mgr, err := Dial(lis.Addr().String(), "m", rpcTarget())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mgr.Concurrency = 1
	if _, err := mgr.RunUntilDone(); err != nil {
		t.Fatal(err)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	sort.Slice(fake.results, func(i, j int) bool { return fake.results[i].Seq < fake.results[j].Seq })
	if len(fake.results) != len(fake.tasks) {
		t.Fatalf("reported %d results for %d tasks: %+v", len(fake.results), len(fake.tasks), fake.results)
	}
	for i, rw := range fake.results {
		if rw.Seq != fake.tasks[i].Seq || rw.Skipped != (rw.Seq != 3) {
			t.Errorf("task %d reported as %+v", fake.tasks[i].Seq, rw)
		}
	}
}

// stingyCoordinator is a fakeCoordinator that folds only the results
// with even seqs.
type stingyCoordinator struct{ *fakeCoordinator }

func (s stingyCoordinator) ReportBatch(rb ResultBatch, ack *BatchAck) error {
	if err := s.fakeCoordinator.ReportBatch(rb, ack); err != nil {
		return err
	}
	ack.Folded = 0
	for _, rw := range rb.Results {
		if rw.Seq%2 == 0 {
			ack.Folded++
		}
	}
	return nil
}

// TestRunUntilDoneCountsAcknowledgedFolds: a manager counts the results
// the coordinator says it folded — a report it drops, such as one of a
// manager it has declared dead, is not work done — not the ones it sent.
func TestRunUntilDoneCountsAcknowledgedFolds(t *testing.T) {
	fake := &fakeCoordinator{axisNames: [][]string{{"testID", "function", "callNumber"}}}
	for seq := 1; seq <= 5; seq++ {
		fake.tasks = append(fake.tasks, TaskWire{Seq: seq, Sub: 0, Fault: []int{0, 0, seq}, Vals: []string{"0", "read", strconv.Itoa(seq)}})
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Coordinator", stingyCoordinator{fake}); err != nil {
		t.Fatal(err)
	}
	here, there := net.Pipe()
	go srv.ServeConn(there)
	runner, err := backend.New(backend.Model, backend.Config{Target: rpcTarget()})
	if err != nil {
		t.Fatal(err)
	}
	mgr := &Manager{ID: "m", Concurrency: 1, client: rpc.NewClient(here), runner: runner, backendName: backend.Model,
		sentStacks: map[uint64]bool{}, encoded: map[uint64][]byte{}}
	defer mgr.Close()
	if err := mgr.hello(); err != nil {
		t.Fatal(err)
	}
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	fake.mu.Lock()
	sent := len(fake.results)
	fake.mu.Unlock()
	if sent != 5 || n != 2 {
		t.Errorf("sent %d results, the coordinator folded 2, RunUntilDone counted %d", sent, n)
	}
}

// TestRunUntilDoneWaitsOutRetry: a coordinator that answers Retry twice,
// then leases its tasks, then says Done. Every loop of the manager waits
// the Retries out inside its lease and leases again; every task runs and
// is reported exactly once, RunUntilDone returns nil, and nothing asks
// for a lease after the Done.
func TestRunUntilDoneWaitsOutRetry(t *testing.T) {
	fake := &fakeCoordinator{axisNames: [][]string{{"testID", "function", "callNumber"}}, retries: 2}
	for seq := 1; seq <= 5; seq++ {
		fake.tasks = append(fake.tasks, TaskWire{Seq: seq, Sub: 0, Fault: []int{0, 0, seq}, Vals: []string{"0", "read", strconv.Itoa(seq)}})
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Coordinator", fake); err != nil {
		t.Fatal(err)
	}
	here, there := net.Pipe()
	go srv.ServeConn(there)
	runner, err := backend.New(backend.Model, backend.Config{Target: rpcTarget()})
	if err != nil {
		t.Fatal(err)
	}
	mgr := &Manager{ID: "m", Concurrency: 2, client: rpc.NewClient(here), runner: runner, backendName: backend.Model,
		sentStacks: map[uint64]bool{}, encoded: map[uint64][]byte{}}
	defer mgr.Close()
	if err := mgr.hello(); err != nil {
		t.Fatal(err)
	}
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if fake.retries != 0 || !fake.done || fake.afterDone != 0 {
		t.Fatalf("retries left %d, done %v, %d lease calls after the Done", fake.retries, fake.done, fake.afterDone)
	}
	reported := map[int]int{}
	for _, rw := range fake.results {
		reported[rw.Seq]++
	}
	for _, tw := range fake.tasks {
		if reported[tw.Seq] != 1 {
			t.Errorf("task %d reported %d times", tw.Seq, reported[tw.Seq])
		}
	}
	if n != len(fake.tasks) || len(fake.results) != len(fake.tasks) {
		t.Errorf("RunUntilDone counted %d folds and sent %d results for %d tasks", n, len(fake.results), len(fake.tasks))
	}
}

// fuzzAxes are the Hello reply's subspaces that a fuzzed task is
// converted against, as the input spells them (subspaces split by ';',
// axis names by ','): one single-fault, one two-fault.
const fuzzAxes = "testID,function,callNumber;testID,function,errno,callNumber,function2,callNumber2"

// splitList splits s at sep; the empty string has no elements.
func splitList(s, sep string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, sep)
}

// FuzzTaskConversion: a leased task with any subspace and any values,
// converted against any axis names a Hello reply may carry, never
// panics the manager; it yields a run, or a skip that runs nothing.
func FuzzTaskConversion(f *testing.F) {
	f.Add(fuzzAxes, 0, "0,read,1")
	f.Add(fuzzAxes, 0, "")
	f.Add(fuzzAxes, 0, "0")
	f.Add(fuzzAxes, 0, "0,read,1,9")
	f.Add(fuzzAxes, 1, "1,read,EIO,2,write,1")
	f.Add(fuzzAxes, 1, "1,read,EIO,2,frobnicate,1")
	f.Add(fuzzAxes, -1, "0,read,1")
	f.Add(fuzzAxes, 2, "0,read,1")
	f.Add(fuzzAxes, 0, "99,write,-4")
	f.Add(fuzzAxes, 0, "x,read,y")
	f.Add("", 0, "0,read,1")
	f.Add(";", 1, "")
	f.Add("callNumber,function,testID", 0, "1,read,0")
	f.Add("testID,testID,function,callNumber", 0, "0,1,read,1")
	f.Add("testID,function", 0, "0,read")
	f.Add("testID,function,callNumber,bogus", 0, "0,read,1,x")
	runner, err := backend.New(backend.Model, backend.Config{Target: rpcTarget()})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, axes string, sub int, raw string) {
		var axisNames [][]string
		for _, names := range splitList(axes, ";") {
			axisNames = append(axisNames, splitList(names, ","))
		}
		vals := splitList(raw, ",")
		tw := TaskWire{Seq: 1, Sub: sub, Fault: []int{len(vals)}, Vals: vals}
		m := &Manager{backendName: backend.Model}
		m.setAxes(axisNames)
		src := &remote{m: m, tasks: map[string][]TaskWire{}}
		c := explore.CandidateAt(faultspace.Point{Sub: tw.Sub, Fault: tw.Fault})
		src.tasks[c.Key()] = []TaskWire{tw}
		rec, out := (&core.BackendExecutor{Runner: runner, Convert: src.convert}).Execute(c)
		pt, plan, err := inject.Point{}, inject.Plan{}, errors.New("no such subspace or other than one value per axis")
		if sub >= 0 && sub < len(axisNames) && len(vals) == len(axisNames[sub]) {
			pt, plan, err = inject.Plugin{}.ConvertValues(axisNames[sub], vals)
		}
		if rec.Skipped != (err != nil) {
			t.Fatalf("task %+v: skipped %v, conversion error %v", tw, rec.Skipped, err)
		}
		if rec.Skipped {
			if !reflect.DeepEqual(out, prog.Outcome{}) {
				t.Fatalf("skipped task %+v produced %+v", tw, out)
			}
			return
		}
		if rec.TestID != pt.TestID || rec.Plan.String() != plan.String() {
			t.Fatalf("task %+v ran test %d with %s, converts to %d with %s", tw, rec.TestID, rec.Plan, pt.TestID, plan)
		}
	})
}

// TestStackFramesOfADroppedResultFold: a manager ships a stack's frames
// once, on the first result with its hash, and the book may drop that
// result — a reaped manager's late report skips every seq it no longer
// holds, while its beat re-admits the manager. The bare hash on a result
// the book folds still resolves to the frames.
func TestStackFramesOfADroppedResultFold(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	var batch TaskBatch
	if err := coord.NextBatch(BatchRequest{Manager: "a", Max: 1}, &batch); err != nil || len(batch.Tasks) != 1 {
		t.Fatalf("lease: %v, %d tasks", err, len(batch.Tasks))
	}
	frames := []string{"m!r", "m!read"}
	h := stackHash(frames)
	rb := ResultBatch{Manager: "a", Results: []ResultWire{
		{Seq: 999, StackHash: h, Stack: frames, Injected: true, Failed: true}, // not held
		{Seq: batch.Tasks[0].Seq, StackHash: h, Injected: true, Failed: true},
	}}
	var ack BatchAck
	if err := coord.ReportBatch(rb, &ack); err != nil || ack.Folded != 1 {
		t.Fatalf("report: %v, %d folded", err, ack.Folded)
	}
	recs := coord.Result().Records
	if len(recs) != 1 {
		t.Fatalf("folded %d records, want 1", len(recs))
	}
	if got := recs[0].Outcome.InjectionStack; !reflect.DeepEqual(got, frames) {
		t.Fatalf("folded with stack %q, want %q", got, frames)
	}
}

// FuzzReportBatch: a report of any results never panics the coordinator.
// It folds only the seqs the reporting manager holds, each once, and
// acknowledges exactly the leases it retired. With the lease byte's 0x40
// bit set, another manager first reports every seq the first holds: it
// folds none of them and counts for no one. Each result picks its seq (leased or not), its
// outcome flags, an interned stack hash that arrives with or without its
// frames (possibly without them first), and its block bytes from the
// input. With the lease byte's top bit set, the manager is declared dead
// before it reports: another manager's lease takes part of its tasks
// back under new seqs, the dead one's report folds none of its own, and
// the survivor's folds each re-leased candidate once. Throughout, the
// leases out plus those waiting to be re-leased are the engine's pending.
func FuzzReportBatch(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0x0f, 1, 2, 1, 2, 1, 0x08, 2, 0, 2, 9, 0x01, 3, 3, 0x80, 0x01, 0})
	f.Add(uint8(1), []byte{7, 0x00, 0, 0})
	f.Add(uint8(8), []byte{0, 0x11, 2, 0, 0, 0x01, 1, 4, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0x84), []byte{0, 0x0f, 1, 2, 1, 2, 1, 0x08, 2, 0, 6, 9, 0x01, 3, 7, 0x80, 0x01, 0})
	f.Add(uint8(0x88), []byte{9, 0x00, 0, 0, 8, 1, 2, 0})
	f.Add(uint8(0x41), []byte{1, 0x00, 0, 0, 2, 1, 0x09, 0})
	f.Add(uint8(0), []byte{0xff, 0, 0xa9, 0, 2, 0, 0x29, 0}) // frames on a seq not held, then the bare hash
	stacks := [][]string{nil, {"m!r", "m!read"}, {"m!r", "m!write"}, {"m!w"}}
	f.Fuzz(func(t *testing.T, lease uint8, in []byte) {
		space := rpcSpace()
		coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
		clk := &stepClock{}
		coord.now = clk.Now
		balanced := func(step string) {
			t.Helper()
			coord.mu.Lock()
			out := len(coord.book.leases) + len(coord.book.relet)
			coord.mu.Unlock()
			if pending := coord.Engine().Snapshot().Pending; out != pending {
				t.Fatalf("after %s: %d leases out or waiting, engine pending %d", step, out, pending)
			}
		}
		out := map[int]string{} // the seqs the coordinator has out, by holder
		nextBatch := func(manager string, max int) []TaskWire {
			var batch TaskBatch
			if err := coord.NextBatch(BatchRequest{Manager: manager, Max: max}, &batch); err != nil {
				t.Fatal(err)
			}
			for _, tw := range batch.Tasks {
				out[tw.Seq] = manager
			}
			balanced(manager + "'s lease")
			return batch.Tasks
		}
		leased := nextBatch("m", int(lease%9)+1)
		var relet []TaskWire
		if lease&0x80 != 0 {
			clk.Advance(deathAfter)
			relet = nextBatch("s", int(lease%3)+1)
			for i, tw := range relet {
				if i < len(leased) && (tw.Sub != leased[i].Sub || !reflect.DeepEqual(tw.Fault, leased[i].Fault)) {
					t.Fatalf("re-lease %d is %+v, want the dead manager's %+v", i, tw, leased[i])
				}
			}
			for _, tw := range leased {
				delete(out, tw.Seq)
			}
		}
		if lease&0x40 != 0 {
			foreign := ResultBatch{Manager: "b"}
			for _, tw := range leased {
				foreign.Results = append(foreign.Results, ResultWire{Seq: tw.Seq, Failed: true})
			}
			var ack BatchAck
			if err := coord.ReportBatch(foreign, &ack); err != nil {
				t.Fatal(err)
			}
			if snap := coord.Snapshot(); ack.Folded != 0 || snap.Executed != 0 || snap.PerManager["b"] != 0 {
				t.Fatalf("a report of another manager's leases folded %d (executed %d, %v per manager)", ack.Folded, snap.Executed, snap.PerManager)
			}
			balanced("b's report")
		}
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		var rb ResultBatch
		retired := 0
		var folds []byte // the stack of each retired result, in fold order
		for len(in) > 0 && len(rb.Results) < 64 {
			rw := ResultWire{Seq: int(next()) - 1, TestID: int(int8(next()))}
			flags := next()
			rw.Failed, rw.Crashed, rw.Hung = flags&1 != 0, flags&2 != 0, flags&4 != 0
			rw.Injected, rw.Skipped = flags&8 != 0, flags&16 != 0
			if s := stacks[flags>>5&3]; s != nil {
				rw.StackHash = stackHash(s)
				if flags&0x80 != 0 {
					rw.Stack = s
				}
			}
			n := int(next() % 8)
			for i := 0; i < n && len(in) > 0; i++ {
				rw.Blocks = append(rw.Blocks, next())
			}
			if out[rw.Seq] == "m" {
				delete(out, rw.Seq)
				retired++
				folds = append(folds, flags>>5&3)
			}
			rb.Results = append(rb.Results, rw)
		}
		rb.Manager = "m"
		var ack BatchAck
		if err := coord.ReportBatch(rb, &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Folded != retired {
			t.Fatalf("acknowledged %d folds, %d leases retired", ack.Folded, retired)
		}
		if snap := coord.Snapshot(); snap.Executed != retired || snap.PerManager["m"] != retired {
			t.Fatalf("folded %d (%v per manager), %d leases retired", snap.Executed, snap.PerManager, retired)
		}
		balanced("m's report")
		survivor := ResultBatch{Manager: "s"}
		want := 0
		for _, tw := range relet {
			survivor.Results = append(survivor.Results, ResultWire{Seq: tw.Seq})
			if out[tw.Seq] == "s" {
				delete(out, tw.Seq)
				want++
			}
		}
		if err := coord.ReportBatch(survivor, &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Folded != want {
			t.Fatalf("the survivor's report folded %d, %d of its leases were out", ack.Folded, want)
		}
		balanced("s's report")
		seen := map[string]bool{}
		for _, rec := range coord.Result().Records {
			if seen[rec.Point.Key()] {
				t.Fatalf("point %s folded twice", rec.Point.Key())
			}
			seen[rec.Point.Key()] = true
		}
		// A stack's frames anywhere in the report resolve its bare hash,
		// whether or not the result carrying them folds.
		sent := map[byte]bool{}
		for _, rw := range rb.Results {
			for k, st := range stacks {
				if st != nil && rw.Stack != nil && rw.StackHash == stackHash(st) {
					sent[byte(k)] = true
				}
			}
		}
		for i, rec := range coord.Result().Records[:len(folds)] { // m's folds come first
			var want []string
			if sent[folds[i]] {
				want = stacks[folds[i]]
			}
			if !slices.Equal(rec.Outcome.InjectionStack, want) {
				t.Fatalf("fold %d has stack %q, want %q", i, rec.Outcome.InjectionStack, want)
			}
		}
	})
}

// FuzzHello: whatever beat interval a Hello reply announces, the
// manager dials, beats on an interval it can keep — the announced one
// when it is one — and stops beating when told to.
func FuzzHello(f *testing.F) {
	for _, d := range []time.Duration{0, -1, DefaultHeartbeat, DefaultHeartbeat / 100, DefaultHeartbeat/100 - 1, time.Nanosecond, time.Hour, 1 << 62} {
		f.Add(int64(d))
	}
	f.Fuzz(func(t *testing.T, announced int64) {
		srv := rpc.NewServer()
		if err := srv.RegisterName("Coordinator", &fakeCoordinator{beat: time.Duration(announced)}); err != nil {
			t.Fatal(err)
		}
		here, there := net.Pipe()
		go srv.ServeConn(there)
		m := &Manager{ID: "m", client: rpc.NewClient(here)}
		defer m.client.Close()
		if err := m.hello(); err != nil {
			t.Fatal(err)
		}
		want := time.Duration(announced)
		if want < DefaultHeartbeat/100 || want > 60*DefaultHeartbeat {
			want = DefaultHeartbeat
		}
		if m.beat != want {
			t.Fatalf("announced %v, beats every %v, want %v", time.Duration(announced), m.beat, want)
		}
		m.startHeartbeat()()
	})
}
