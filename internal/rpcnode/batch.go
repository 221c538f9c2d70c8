package rpcnode

// The wire protocol. Two blocking gob round trips per scenario would
// make the network, not test execution, the bottleneck once the
// warm-worker backend executes a scenario in tens of microseconds, so
// the coordinator — a thin adapter over the core.Engine seams
// (Lease/FoldBatch, journaled resume) plus its own liveness — moves many
// tasks per round trip:
//
//   - Coordinator.NextBatch leases up to Max candidates at once; the
//     coordinator sizes adaptive requests from the managers' measured
//     per-test latency and the live managers' share of the remaining
//     budget (core.Engine.AdaptiveBatch) — slow targets get small
//     batches, so a dead manager takes little with it, fast ones large
//     batches for wire amortization.
//   - Coordinator.ReportBatch folds many results through
//     Engine.FoldBatch, one session-lock round per report.
//   - A manager runs the engine's worker loop (core.Work) against the
//     lease source these calls make (remote), executing each lease whole
//     so a batching backend arms it at once; the next NextBatch is in
//     flight while a lease executes — not at Batch = 1, see Manager.Batch.
//   - Tasks ship coordinates and axis values, not formatted scenario
//     strings (the axis names travel once, in the Hello reply);
//     results ship varint-delta block sets and interned stacks
//     (wire.go).
//
// Coordinator.Hello is the dial-time handshake. It carries the axis
// names, the beat interval and a protocol generation, which both ends
// require to be protoBatched: a mismatch fails the dial with an error
// naming it.

import (
	"fmt"
	"math/rand"
	"net/rpc"
	"runtime"
	"sync"
	"time"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/dsl"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/inject"
	"afex/internal/prog"
)

// protoBatched is the protocol generation of Hello/NextBatch/ReportBatch
// — the only one spoken.
const protoBatched = 2

// maxSuggestRetryMS caps the coordinator-suggested Retry backoff.
const maxSuggestRetryMS = 250

// Hello is the manager's dial-time handshake.
type Hello struct {
	Manager string
	// Proto is the protocol generation the manager speaks.
	Proto int
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
	// dies comes back to be leased again. The manager polls again after
	// RetryAfterMS, the coordinator-suggested backoff (growing with the
	// manager's consecutive empty polls; the manager adds jitter).
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
	// Folded counts the results that retired a lease; unknown seqs —
	// among them those of a manager declared dead, whose leases went to
	// others — are dropped, not errors.
	Folded int
}

// Hello is the dial-time handshake: it hands the manager the
// per-subspace axis names and rejects a manager speaking an older
// protocol generation.
func (c *Coordinator) Hello(h Hello, reply *HelloReply) error {
	if h.Proto < protoBatched {
		return fmt.Errorf("rpcnode: manager %q speaks protocol %d, this coordinator needs %d", h.Manager, h.Proto, protoBatched)
	}
	c.noteManager(h.Manager)
	reply.Proto = protoBatched
	reply.AxisNames = c.axisNames
	reply.Heartbeat = DefaultHeartbeat
	return nil
}

// NextBatch leases up to req.Max candidates (0 = adaptive) in one
// round trip: the leases of dead managers first, then fresh candidates
// from the engine. A batch with Done set means the session is over;
// Retry means poll again after the suggested backoff. With nothing to
// hand out while leases are out, NextBatch first waits out that backoff
// itself, looking again at every report and reap, so a session's end,
// or a dead manager's leases, reach an idle manager at once.
func (c *Coordinator) NextBatch(req BatchRequest, batch *TaskBatch) error {
	live := c.noteManager(req.Manager)
	if req.AvgTestNS > 0 {
		c.engine.ObserveLatency(time.Duration(req.AvgTestNS))
	}
	n := req.Max
	if n <= 0 {
		n = c.engine.AdaptiveBatch(live)
	}
	var (
		backoff *time.Timer
		ms      int
	)
	for {
		tasks, progress := c.leaseTasks(req.Manager, n)
		if len(tasks) > 0 {
			batch.Tasks = tasks
			return nil
		}
		if progress == nil {
			batch.Done = true
			return nil
		}
		if backoff == nil {
			ms = c.retryAfter(req.Manager)
			backoff = time.NewTimer(time.Duration(ms) * time.Millisecond)
			defer backoff.Stop()
		}
		select {
		case <-progress:
		case <-backoff.C:
			batch.Retry, batch.RetryAfterMS = true, ms
			return nil
		}
	}
}

// leaseTasks hands manager up to n tasks: dead managers' leases first, then
// fresh candidates. With none to hand out it returns, while leases are
// out and the engine runs, the channel the next report or reap closes;
// otherwise a nil channel: the session is done.
func (c *Coordinator) leaseTasks(manager string, n int) ([]TaskWire, chan struct{}) {
	c.mu.Lock()
	var relet []lease
	if !c.engine.Stopped() {
		k := min(n, len(c.relet))
		relet, c.relet = c.relet[:k:k], c.relet[k:]
	}
	c.leasing++
	c.mu.Unlock()
	var cands []explore.Candidate
	if len(relet) < n {
		cands = c.engine.Lease(n - len(relet))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leasing--
	if len(relet)+len(cands) == 0 {
		if c.leasing+len(c.leases) == 0 || c.engine.Stopped() {
			return nil, nil
		}
		if c.progress == nil {
			c.progress = make(chan struct{})
		}
		return nil, c.progress
	}
	delete(c.idle, manager)
	tasks := make([]TaskWire, 0, len(relet)+len(cands))
	for _, ls := range relet {
		ls.manager = manager
		tasks = append(tasks, c.leaseLocked(ls))
	}
	for _, cand := range cands {
		vals := dsl.ValuesFor(c.space, cand.Point)
		scenario := dsl.FormatPairs(c.axisNames[cand.Point.Sub], vals)
		tasks = append(tasks, c.leaseLocked(lease{cand: cand, scenario: scenario, vals: vals, manager: manager}))
	}
	return tasks, nil
}

// wakeLocked ends the wait of every NextBatch waiting for a report or a
// reap. Called under c.mu.
func (c *Coordinator) wakeLocked() {
	if c.progress != nil {
		close(c.progress)
		c.progress = nil
	}
}

// leaseLocked enters ls in the lease table under the next seq and
// returns its task. Called under c.mu.
func (c *Coordinator) leaseLocked(ls lease) TaskWire {
	c.seq++
	c.leases[c.seq] = ls
	return TaskWire{
		Seq:   c.seq,
		Sub:   ls.cand.Point.Sub,
		Fault: append([]int(nil), ls.cand.Point.Fault...),
		Vals:  ls.vals,
	}
}

// ReportBatch folds a batch of results through Engine.FoldBatch — the
// parallel-precompute fold pipeline local sessions use, one
// session-lock round for the whole batch. Results for unknown leases
// are dropped (see BatchAck.Folded), among them every lease of a
// manager since declared dead: those are another manager's now.
func (c *Coordinator) ReportBatch(rb ResultBatch, ack *BatchAck) error {
	c.noteManager(rb.Manager)
	bname := rb.Backend
	if bname == "" {
		bname = backend.Model
	}
	ets := make([]core.ExecutedTest, 0, len(rb.Results))
	c.mu.Lock()
	for _, rw := range rb.Results {
		ls, ok := c.leases[rw.Seq]
		if !ok {
			continue
		}
		delete(c.leases, rw.Seq)
		c.perManager[rb.Manager]++
		stack := rw.Stack
		if rw.StackHash != 0 {
			if len(stack) > 0 {
				if c.stacks == nil {
					c.stacks = make(map[uint64][]string)
				}
				if _, seen := c.stacks[rw.StackHash]; !seen {
					c.stacks[rw.StackHash] = append([]string(nil), stack...)
				}
			} else {
				stack = c.stacks[rw.StackHash]
			}
		}
		out := c.coverage(rw.Blocks)
		out.Failed, out.Crashed, out.Hung, out.Injected = rw.Failed, rw.Crashed, rw.Hung, rw.Injected
		out.CrashID, out.InjectionStack = rw.CrashID, stack
		ets = append(ets, c.foldInput(ls, rw.TestID, rw.Skipped, out, bname, rw.ExitStatus, rw.DurationNS))
	}
	if len(ets) > 0 {
		c.wakeLocked()
	}
	c.mu.Unlock()
	if len(ets) > 0 {
		c.engine.FoldBatch(ets)
	}
	ack.Folded = len(ets)
	return nil
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

// retryAfter suggests the poll backoff for a manager's Retry response,
// doubling from 5ms with each consecutive empty poll up to a cap. The
// manager jitters it; a successful lease resets the growth.
func (c *Coordinator) retryAfter(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idle == nil {
		c.idle = make(map[string]int)
	}
	n := c.idle[id]
	c.idle[id]++
	if n > 5 {
		n = 5
	}
	ms := 5 << n
	if ms > maxSuggestRetryMS {
		ms = maxSuggestRetryMS
	}
	return ms
}

// sleepRetry waits out a Retry poll for the coordinator-suggested
// backoff (growing with the manager's consecutive empty polls); ±25%
// jitter keeps a fleet of idle managers from polling in lockstep.
func sleepRetry(suggestMS int) {
	if suggestMS < 1 {
		suggestMS = 1 // never spin on a reply that suggests nothing
	}
	d := time.Duration(suggestMS) * time.Millisecond
	jitter := time.Duration(rand.Int63n(int64(d)/2 + 1))
	time.Sleep(d*3/4 + jitter)
}

// hello performs the dial-time handshake. A coordinator that does not
// serve Coordinator.Hello (net/rpc reports unknown methods as call
// errors) or answers with another protocol generation cannot be worked
// for; the error says which.
func (m *Manager) hello() error {
	var reply HelloReply
	if err := m.client.Call("Coordinator.Hello", Hello{Manager: m.ID, Proto: protoBatched}, &reply); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if reply.Proto != protoBatched {
		return fmt.Errorf("handshake: coordinator speaks protocol %d, this manager needs %d", reply.Proto, protoBatched)
	}
	m.axisNames = reply.AxisNames
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
// Batch = 1); FoldBatch is ReportBatch, one at a time so a stack's
// frames arrive before its bare hash; Park sleeps out a Retry. The locks
// held across a call wait on the coordinator alone.
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
	retryMS   int   // the last empty lease's suggested backoff
	done      bool  // nothing more to lease: Done, or a call failed
	err       error // the first failed call; the loops arm nothing more
}

// Lease takes the prefetched NextBatch reply, or asks for one, and
// prefetches the next before handing the tasks out.
func (r *remote) Lease(n int) []explore.Candidate {
	r.leasing.Lock()
	defer r.leasing.Unlock()
	call := r.next
	r.next = nil
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
	leased := call.Error == nil && len(batch.Tasks) > 0
	if leased && n != 1 {
		r.next = r.m.client.Go("Coordinator.NextBatch", req, new(TaskBatch), nil)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !leased {
		r.failLocked(call.Error)
		r.done, r.retryMS = r.done || !batch.Retry, batch.RetryAfterMS
		return nil
	}
	cands := make([]explore.Candidate, len(batch.Tasks))
	for i := range batch.Tasks {
		q := batch.Tasks[i : i+1 : i+1] // the task's queue, copied only if its key is already held
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
	pt, plan, err := convertTask(r.m.axisNames, tw)
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

// Park sleeps out the coordinator's Retry backoff and reports whether
// to lease again.
func (r *remote) Park() bool {
	r.mu.Lock()
	done, ms := r.done, r.retryMS
	r.mu.Unlock()
	if !done {
		sleepRetry(ms)
	}
	return !done
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

// convertTask rebuilds the injection plan straight from the leased
// coordinates — the wire ships axis values, not formatted scenario
// strings, so nothing is parsed per task. A task naming a subspace the
// coordinator did not announce, or carrying other than one value per
// axis, is an error.
func convertTask(axisNames [][]string, tw TaskWire) (inject.Point, inject.Plan, error) {
	if tw.Sub < 0 || tw.Sub >= len(axisNames) {
		return inject.Point{}, inject.Plan{}, fmt.Errorf("rpcnode: task %d names subspace %d of %d", tw.Seq, tw.Sub, len(axisNames))
	}
	names := axisNames[tw.Sub]
	if len(tw.Vals) != len(names) {
		return inject.Point{}, inject.Plan{}, fmt.Errorf("rpcnode: task %d carries %d values for %d axes", tw.Seq, len(tw.Vals), len(names))
	}
	return inject.Plugin{}.ConvertValues(names, tw.Vals)
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
