package rpcnode

// The wire protocol. Two blocking gob round trips per scenario would
// make the network, not test execution, the bottleneck once the
// warm-worker backend executes a scenario in tens of microseconds, so
// the protocol moves many tasks per round trip:
//
//   - Coordinator.NextBatch leases up to Max candidates at once, sized
//     by default from the managers' measured per-test latency and the
//     live managers' share of the remaining budget (LeaseBook.Lease) —
//     slow targets get small batches, so a dead manager takes little
//     with it, fast ones large batches for wire amortization.
//   - Coordinator.ReportBatch folds many results through
//     Engine.FoldBatch, one session-lock round per report.
//   - A manager runs the engine's worker loop (core.Work) against the
//     lease source these calls make (remote), executing each lease whole
//     so a batching backend arms it at once; the next NextBatch is in
//     flight while a lease executes — not at Batch = 1, see Manager.Batch.
//   - Tasks ship coordinates and axis values — views of the scenario
//     text the coordinator renders once per task and journals — not the
//     text itself (the axis names travel once, in the Hello reply);
//     results ship varint-delta block sets and interned stacks
//     (wire.go).
//
// Coordinator.Hello is the dial-time handshake. It carries the axis
// names, the beat interval and a protocol generation, which both ends
// require to be protoBatched: a mismatch fails the dial with an error
// naming it.

import (
	"fmt"
	"net/rpc"
	"runtime"
	"sync"
	"time"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/prog"
)

// protoBatched is the protocol generation of Hello/NextBatch/ReportBatch
// — the only one spoken.
const protoBatched = 2

// pollWait bounds how long NextBatch waits, with nothing to hand out,
// for a report or a reap before it answers Retry: one beat, so a
// manager that sends no heartbeat of its own still calls well inside
// its miss budget.
const pollWait = DefaultHeartbeat

// Hello is the manager's dial-time handshake.
type Hello struct {
	Manager string
	// Proto is the protocol generation the manager speaks.
	Proto int
	// Target names the model target the manager runs (empty for a
	// process backend); a coordinator exploring another refuses it.
	Target string
}

// HelloReply answers the handshake.
type HelloReply struct {
	// Proto is the coordinator's protocol generation.
	Proto int
	// AxisNames carries each subspace's axis names, sent once so leases
	// can ship bare axis values (TaskWire.Vals) instead of a formatted
	// scenario string per task.
	AxisNames [][]string
	// Heartbeat is the interval the manager beats on (DefaultHeartbeat).
	Heartbeat time.Duration
}

// BatchRequest leases up to Max tasks in one round trip.
type BatchRequest struct {
	Manager string
	// Max caps the lease; 0 lets the coordinator size the batch
	// adaptively from measured test latency.
	Max int
	// AvgTestNS is the manager's measured per-test execution wall
	// clock over the last lease it executed (0 = no data yet), folded
	// into the coordinator's latency average to steer adaptive sizing.
	// Managers measure it themselves because backends may not report
	// durations (the model backend deliberately journals none).
	AvgTestNS int64
}

// TaskWire is one leased test in wire form: the coordinator-assigned
// lease sequence number (echoed back in ResultWire.Seq), the fault's
// coordinates, and its axis values (pairing with
// HelloReply.AxisNames[Sub]).
type TaskWire struct {
	Seq   int
	Sub   int
	Fault []int
	Vals  []string
}

// TaskBatch answers NextBatch.
type TaskBatch struct {
	Tasks []TaskWire
	// Done indicates the exploration is over; the manager should exit.
	Done bool
	// Retry indicates no candidate is available right now but the
	// session is still running — leases are out, and one whose manager
	// dies comes back to be leased again. The coordinator has already
	// waited pollWait for that; the manager asks again after
	// RetryAfterMS (RetryAfter).
	Retry        bool
	RetryAfterMS int
}

// ResultWire is one executed test in wire form. Stack/StackHash
// implement per-connection interning: the frames travel with the
// hash's first use, the bare hash thereafter. Blocks is the
// varint-delta encoding of the covered block set (wire.go).
type ResultWire struct {
	Seq        int
	TestID     int
	Failed     bool
	Crashed    bool
	Hung       bool
	Injected   bool
	Skipped    bool
	CrashID    string
	StackHash  uint64
	Stack      []string
	Blocks     []byte
	ExitStatus string
	DurationNS int64
}

// ResultBatch reports many executed tests in one round trip. Backend is
// hoisted to batch level — a manager runs one backend.
type ResultBatch struct {
	Manager string
	Backend string
	Results []ResultWire
}

// BatchAck acknowledges a ResultBatch.
type BatchAck struct {
	// Folded counts the results that retired a lease the reporting
	// manager holds; other seqs — among them those of a manager declared
	// dead, whose leases went to others — are dropped, not errors.
	Folded int
}

// Hello is the dial-time handshake: it hands the manager the
// per-subspace axis names and refuses a manager speaking an older
// protocol generation or running another target (LeaseBook.Hello). A
// refusal reaches the manager as text, behind DialBackend's own
// "rpcnode: dial" prefix, so it names no package itself.
func (c *Coordinator) Hello(h Hello, reply *HelloReply) error {
	if h.Proto < protoBatched {
		return fmt.Errorf("manager %q speaks protocol %d, this coordinator needs %d", h.Manager, h.Proto, protoBatched)
	}
	c.mu.Lock()
	err := c.book.Hello(c.now(), h.Manager, h.Target)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	reply.Proto = protoBatched
	reply.AxisNames = c.book.axisNames
	reply.Heartbeat = DefaultHeartbeat
	return nil
}

// NextBatch leases up to req.Max candidates (0 = adaptive) in one
// round trip through the lease book. With nothing to hand out while
// leases are out, it waits — at most pollWait, looking again at every
// report and reap — so a session's end, or a dead manager's leases,
// reach an idle manager at once; past the wait it answers Retry. Once
// the server closes it answers Done (LeaseBook.Close).
func (c *Coordinator) NextBatch(req BatchRequest, batch *TaskBatch) error {
	var timeout *time.Timer
	for perTest := time.Duration(req.AvgTestNS); ; perTest = 0 { // the latency is observed once
		c.mu.Lock()
		g := c.book.Lease(c.now(), req.Manager, req.Max, perTest)
		c.mu.Unlock()
		if !g.Retry {
			batch.Tasks, batch.Done = g.Tasks, g.Done
			return nil
		}
		if timeout == nil {
			timeout = time.NewTimer(pollWait)
			defer timeout.Stop()
		}
		select {
		case <-g.wake:
		case <-timeout.C:
			batch.Retry, batch.RetryAfterMS = true, int(RetryAfter/time.Millisecond)
			return nil
		}
	}
}

// ReportBatch folds the results of the leases the reporting manager
// holds (BatchAck.Folded) through the lease book and Engine.FoldBatch,
// one session-lock round for the whole batch.
func (c *Coordinator) ReportBatch(rb ResultBatch, ack *BatchAck) error {
	bname := rb.Backend
	if bname == "" {
		bname = backend.Model
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// A stack's frames travel once (Manager.internStacks), perhaps on a
	// result the book drops: learn them from every result first.
	for i := range rb.Results {
		c.learnStack(&rb.Results[i])
	}
	ack.Folded = c.book.Report(c.now(), rb.Manager, len(rb.Results),
		func(i int) int { return rb.Results[i].Seq },
		func(i int, t Task) core.ExecutedTest { return c.foldInput(t, &rb.Results[i], bname) })
	return nil
}

// learnStack interns the frames a result carries under their hash.
// Called under c.mu.
func (c *Coordinator) learnStack(rw *ResultWire) {
	if rw.StackHash == 0 || len(rw.Stack) == 0 {
		return
	}
	if c.stacks == nil {
		c.stacks = make(map[uint64][]string)
	}
	if _, seen := c.stacks[rw.StackHash]; !seen {
		c.stacks[rw.StackHash] = append([]string(nil), rw.Stack...)
	}
}

// foldInput is a retired lease's fold input: the reported outcome, its
// interned stack and coverage set resolved, and the armed plan rebuilt
// from the lease's axis values through its subspace's Form (the wire
// carries only the outcome), so a persistent session's journal replays
// the failure. Called under c.mu.
func (c *Coordinator) foldInput(t Task, rw *ResultWire, bname string) core.ExecutedTest {
	stack := rw.Stack
	if len(stack) == 0 && rw.StackHash != 0 {
		stack = c.stacks[rw.StackHash]
	}
	out := c.coverage(rw.Blocks)
	out.Failed, out.Crashed, out.Hung, out.Injected = rw.Failed, rw.Crashed, rw.Hung, rw.Injected
	out.CrashID, out.InjectionStack = rw.CrashID, stack
	rec := core.Record{
		Point:      t.Cand.Point,
		Scenario:   t.Scenario,
		TestID:     rw.TestID,
		Skipped:    rw.Skipped,
		Backend:    bname,
		ExitStatus: rw.ExitStatus,
		Duration:   time.Duration(rw.DurationNS),
	}
	if !rw.Skipped {
		if _, plan, err := c.forms[t.Cand.Point.Sub].Convert(t.Vals); err == nil {
			rec.Plan = plan
		}
	}
	return core.ExecutedTest{C: t.Cand, Rec: rec, Out: out}
}

// coverage returns an outcome holding the block set enc encodes and its
// content sum: decoded and summed the first time these bytes arrive, that
// one read-only map thereafter. Called under c.mu.
func (c *Coordinator) coverage(enc []byte) prog.Outcome {
	cov, ok := c.covs[string(enc)] // the conversion only keys the lookup: no allocation
	if !ok {
		cov.Blocks = decodeBlocks(enc)
		cov.BlockSum = prog.SumBlocks(cov.Blocks)
		if len(c.covs) < maxInternedSets {
			c.covs[string(enc)] = cov // a copy: the entry outlives the RPC buffer
		}
	}
	return cov
}

// hello performs the dial-time handshake. A coordinator that does not
// serve Coordinator.Hello (net/rpc reports unknown methods as call
// errors) or answers with another protocol generation cannot be worked
// for; the error says which.
func (m *Manager) hello() error {
	var reply HelloReply
	h := Hello{Manager: m.ID, Proto: protoBatched}
	if m.Target != nil && m.backendName == backend.Model {
		h.Target = m.Target.Name // a process backend names none
	}
	if err := m.client.Call("Coordinator.Hello", h, &reply); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if reply.Proto != protoBatched {
		return fmt.Errorf("handshake: coordinator speaks protocol %d, this manager needs %d", reply.Proto, protoBatched)
	}
	m.setAxes(reply.AxisNames)
	m.beat = beatOf(reply)
	return nil
}

// beatOf is the interval to beat on that a Hello reply announces, or
// DefaultHeartbeat when it announces none a manager can keep: a
// non-positive one (time.NewTicker panics on it), or one outside
// [DefaultHeartbeat/100, 60·DefaultHeartbeat], which would flood the
// connection or let the coordinator declare a live manager dead.
func beatOf(reply HelloReply) time.Duration {
	if d := reply.Heartbeat; d >= DefaultHeartbeat/100 && d <= 60*DefaultHeartbeat {
		return d
	}
	return DefaultHeartbeat
}

// remote is the worker loop's lease source over the wire: Lease is
// NextBatch, with the next in flight while a lease executes (not at
// Batch = 1) and a Retry slept out before asking again; FoldBatch is
// ReportBatch, one at a time so a stack's frames arrive before its bare
// hash. The locks held across a call wait on the coordinator alone.
type remote struct {
	m         *Manager
	leasing   sync.Mutex   // held across a lease reply's wait; guards next
	next      *rpc.Call    // the prefetched NextBatch
	reporting sync.Mutex   // held across a report; guards rws and reported
	rws       []ResultWire // the report being sent, reused
	reported  int          // results the coordinator acknowledged folding

	mu sync.Mutex
	// tasks holds the leased tasks not yet reported, by scenario key: a
	// candidate converts from the first, and its report retires it.
	tasks     map[string][]TaskWire
	perTestNS int64 // the last executed lease's wall clock per test
	done      bool  // nothing more to lease: Done, or a call failed
	err       error // the first failed call; the loops arm nothing more
}

// Lease takes the prefetched NextBatch reply, or asks for one, and
// prefetches the next before handing the tasks out. A Retry is waited
// out here, its RetryAfterMS (at least a millisecond) at a time, so an
// empty Lease means there is nothing more: Done, or a failed call.
func (r *remote) Lease(n int) []explore.Candidate {
	r.leasing.Lock()
	defer r.leasing.Unlock()
	call := r.next
	r.next = nil
	for {
		r.mu.Lock()
		req, done := BatchRequest{Manager: r.m.ID, Max: n, AvgTestNS: r.perTestNS}, r.done
		r.mu.Unlock()
		if done {
			return nil
		}
		if call == nil {
			call = r.m.client.Go("Coordinator.NextBatch", req, new(TaskBatch), nil)
		}
		<-call.Done
		batch := call.Reply.(*TaskBatch)
		if call.Error == nil && len(batch.Tasks) > 0 {
			if n != 1 {
				r.next = r.m.client.Go("Coordinator.NextBatch", req, new(TaskBatch), nil)
			}
			return r.hold(batch.Tasks)
		}
		if call.Error != nil || !batch.Retry {
			r.mu.Lock()
			r.failLocked(call.Error)
			r.done = true
			r.mu.Unlock()
			return nil
		}
		time.Sleep(time.Duration(max(batch.RetryAfterMS, 1)) * time.Millisecond)
		call = nil
	}
}

// hold keeps leased tasks until their reports and returns them as
// candidates.
func (r *remote) hold(tasks []TaskWire) []explore.Candidate {
	r.mu.Lock()
	defer r.mu.Unlock()
	cands := make([]explore.Candidate, len(tasks))
	for i := range tasks {
		q := tasks[i : i+1 : i+1] // the task's queue, copied only if its key is already held
		cands[i] = explore.CandidateAt(faultspace.Point{Sub: q[0].Sub, Fault: q[0].Fault})
		if held := r.tasks[cands[i].Key()]; held != nil {
			q = append(held, q[0])
		}
		r.tasks[cands[i].Key()] = q
	}
	return cands
}

// convert rebuilds a leased candidate's injection plan from its task's
// axis values; a task that does not convert is reported as a skip, so
// its lease retires and the engine tallies the hole.
func (r *remote) convert(c explore.Candidate) (core.Record, backend.Test, bool) {
	r.mu.Lock()
	tw := r.tasks[c.Key()][0]
	r.mu.Unlock()
	pt, plan, err := r.m.convertTask(tw)
	if err != nil {
		return core.Record{Skipped: true}, backend.Test{}, false
	}
	return core.Record{TestID: pt.TestID, Plan: plan}, backend.Test{TestID: pt.TestID, Plan: plan}, true
}

// FoldBatch reports executed tests in one ReportBatch. A failed report
// stops the loops; the coordinator re-leases what it never heard of.
func (r *remote) FoldBatch(done []core.ExecutedTest) bool {
	r.reporting.Lock()
	defer r.reporting.Unlock()
	r.rws = r.rws[:0]
	r.mu.Lock()
	for _, et := range done {
		k, out := et.C.Key(), et.Out
		q := r.tasks[k]
		if r.tasks[k] = q[1:]; len(q) == 1 {
			delete(r.tasks, k)
		}
		r.rws = append(r.rws, ResultWire{Seq: q[0].Seq, TestID: et.Rec.TestID, Failed: out.Failed, Crashed: out.Crashed,
			Hung: out.Hung, Injected: out.Injected, Skipped: et.Rec.Skipped, CrashID: out.CrashID, Stack: out.InjectionStack,
			Blocks: r.m.encodeCoverage(out), ExitStatus: et.Rec.ExitStatus, DurationNS: int64(et.Rec.Duration)})
	}
	r.mu.Unlock()
	var ack BatchAck
	err := r.m.client.Call("Coordinator.ReportBatch", ResultBatch{Manager: r.m.ID, Backend: r.m.backendName, Results: r.m.internStacks(r.rws)}, &ack)
	if err != nil {
		r.mu.Lock()
		r.failLocked(err)
		r.mu.Unlock()
		return true
	}
	r.reported += ack.Folded
	return false
}

// failLocked records the first failed call, which ends leasing.
func (r *remote) failLocked(err error) {
	if err != nil && r.err == nil {
		r.err, r.done = err, true
	}
}

func (r *remote) Stopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err != nil
}

// Unlease hands nothing back: a lease this manager never reports goes
// to another once the coordinator declares it dead.
func (r *remote) Unlease(int) {}

// observe keeps a lease's per-test wall clock for the next request.
func (r *remote) observe(perTest time.Duration) {
	r.mu.Lock()
	r.perTestNS = int64(perTest)
	r.mu.Unlock()
}

// encodeCoverage returns the wire bytes of out's block set: one
// sort-and-encode per distinct set, keyed by its content sum (a set
// without one is encoded per result). The bytes are shared.
func (m *Manager) encodeCoverage(out prog.Outcome) []byte {
	if out.BlockSum == 0 {
		return encodeBlocks(out.Blocks) // outside the lock: every result of a sum-less runner comes here
	}
	m.encMu.Lock()
	defer m.encMu.Unlock()
	enc, ok := m.encoded[out.BlockSum]
	if !ok {
		enc = encodeBlocks(out.Blocks)
		if len(m.encoded) < maxInternedSets {
			m.encoded[out.BlockSum] = enc
		}
	}
	return enc
}

// setAxes keeps the Hello reply's axis names and resolves their key
// layouts.
func (m *Manager) setAxes(axisNames [][]string) {
	m.axisNames, m.forms = axisNames, make([]inject.Form, len(axisNames))
	for i, names := range axisNames {
		m.forms[i] = inject.FormOf(names)
	}
}

// convertTask rebuilds the injection plan straight from the leased
// task's axis values through its subspace's key layout, so nothing is
// parsed or looked up by name per task. A task naming a subspace the
// coordinator did not announce, or carrying other than one value per
// axis, is an error.
func (m *Manager) convertTask(tw TaskWire) (inject.Point, inject.Plan, error) {
	if tw.Sub < 0 || tw.Sub >= len(m.axisNames) {
		return inject.Point{}, inject.Plan{}, fmt.Errorf("rpcnode: task %d names subspace %d of %d", tw.Seq, tw.Sub, len(m.axisNames))
	}
	if len(tw.Vals) != len(m.axisNames[tw.Sub]) {
		return inject.Point{}, inject.Plan{}, fmt.Errorf("rpcnode: task %d carries %d values for %d axes", tw.Seq, len(tw.Vals), len(m.axisNames[tw.Sub]))
	}
	return m.forms[tw.Sub].Convert(tw.Vals)
}

// internStacks applies per-connection stack interning: every non-empty
// stack gets its content hash, and the frames are stripped for stacks
// this manager has already shipped. Called under remote.reporting.
func (m *Manager) internStacks(rws []ResultWire) []ResultWire {
	for i := range rws {
		if len(rws[i].Stack) == 0 {
			continue
		}
		h := stackHash(rws[i].Stack)
		rws[i].StackHash = h
		if m.sentStacks[h] {
			rws[i].Stack = nil
		} else {
			m.sentStacks[h] = true
		}
	}
	return rws
}

// loops is how many worker loops RunUntilDone runs: one at Batch = 1,
// else Concurrency, else the backend's own pool width (process
// backends' Config.Procs), else one per core.
func (m *Manager) loops() int {
	p, _ := m.runner.(backend.Parallel)
	switch {
	case m.Batch == 1:
		return 1
	case m.Concurrency > 0:
		return m.Concurrency
	case p != nil && p.Parallelism() > 0:
		return p.Parallelism()
	}
	return runtime.GOMAXPROCS(0)
}
