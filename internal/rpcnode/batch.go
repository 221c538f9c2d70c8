package rpcnode

// The wire protocol. Two blocking gob round trips per scenario would
// make the network, not test execution, the bottleneck once the
// warm-worker backend executes a scenario in tens of microseconds, so
// the coordinator — a thin adapter over the core.Engine seams
// (Lease/FoldBatch, lease expiry, heartbeat reaping, journaled resume) —
// moves many tasks per round trip:
//
//   - Coordinator.NextBatch leases up to Max candidates at once; the
//     coordinator sizes adaptive requests from the managers' measured
//     per-test latency (core.Engine.AdaptiveBatch) — slow targets get
//     small batches for lease-expiry responsiveness, fast ones large
//     batches for wire amortization.
//   - The manager double-buffers leases (the next NextBatch is in
//     flight while the current batch executes; not at Batch = 1, see
//     Manager.Batch), fans tasks across its backend's pool
//     concurrently, and flushes accumulated results by size and age
//     through Coordinator.ReportBatch, which folds them through
//     Engine.FoldBatch — one session-lock round per flush.
//   - Tasks ship coordinates and axis values, not formatted scenario
//     strings (the axis names travel once, in the Hello reply);
//     results ship varint-delta block sets and interned stacks
//     (wire.go).
//
// Coordinator.Hello is the dial-time handshake. It carries the axis
// names and a protocol generation, which both ends require to be
// protoBatched: a mismatch fails the dial with an error naming it.

import (
	"fmt"
	"math/rand"
	"net/rpc"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/dsl"
	"afex/internal/inject"
	"afex/internal/prog"
)

// protoBatched is the protocol generation of Hello/NextBatch/ReportBatch
// — the only one spoken.
const protoBatched = 2

// DefaultFlushEvery bounds how long executed results may buffer on the
// manager before a ReportBatch flush when Manager.FlushEvery is zero.
const DefaultFlushEvery = 50 * time.Millisecond

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
}

// BatchRequest leases up to Max tasks in one round trip.
type BatchRequest struct {
	Manager string
	// Max caps the lease; 0 lets the coordinator size the batch
	// adaptively from measured test latency.
	Max int
	// AvgTestNS is the manager's measured per-test execution wall
	// clock so far (0 = no data yet), folded into the coordinator's
	// latency average to steer adaptive sizing. Managers measure it
	// themselves because backends may not report durations (the model
	// backend deliberately journals none).
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
	// session is still running — outstanding leases of a dead manager
	// may yet expire and be re-leased (Config.LeaseTimeout). The
	// manager polls again after RetryAfterMS, the coordinator-suggested
	// backoff (growing with the manager's consecutive empty polls; the
	// manager adds jitter).
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
	// Folded counts the results that retired a lease; stale seqs (a
	// manager reaped for silence whose candidates were already
	// re-executed elsewhere, then folded again by the engine's
	// exactly-once dedup) are dropped, not errors.
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
	return nil
}

// NextBatch leases up to req.Max candidates (0 = adaptive) in one
// round trip. A batch with Done set means the session is over; Retry
// means poll again after the suggested backoff.
func (c *Coordinator) NextBatch(req BatchRequest, batch *TaskBatch) error {
	c.noteManager(req.Manager)
	if req.AvgTestNS > 0 {
		c.engine.ObserveLatency(time.Duration(req.AvgTestNS))
	}
	n := req.Max
	if n <= 0 {
		n = c.engine.AdaptiveBatch()
	}
	cands := c.engine.Lease(n)
	if len(cands) == 0 {
		if c.engine.Waiting() {
			batch.Retry = true
			batch.RetryAfterMS = c.retryAfter(req.Manager)
			return nil
		}
		batch.Done = true
		return nil
	}
	batch.Tasks = make([]TaskWire, len(cands))
	c.mu.Lock()
	delete(c.idle, req.Manager)
	c.held[req.Manager] += len(cands)
	if len(c.held) > c.peakBusy {
		c.peakBusy = len(c.held)
	}
	for i, cand := range cands {
		vals := dsl.ValuesFor(c.space, cand.Point)
		scenario := dsl.FormatPairs(c.axisNames[cand.Point.Sub], vals)
		c.seq++
		c.leases[c.seq] = lease{cand: cand, scenario: scenario, vals: vals, manager: req.Manager}
		batch.Tasks[i] = TaskWire{
			Seq:   c.seq,
			Sub:   cand.Point.Sub,
			Fault: append([]int(nil), cand.Point.Fault...),
			Vals:  vals,
		}
	}
	c.mu.Unlock()
	return nil
}

// ReportBatch folds a batch of results through Engine.FoldBatch — the
// parallel-precompute fold pipeline local sessions use, one
// session-lock round for the whole batch. Results for unknown leases
// are dropped (see BatchAck.Folded); a partial batch from a manager
// since declared dead folds whatever leases it still holds, and the
// engine's exactly-once dedup drops candidates a survivor already
// re-executed.
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
		if c.held[ls.manager]--; c.held[ls.manager] <= 0 {
			delete(c.held, ls.manager)
		}
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

// Hello is the dial-time handshake (RPC method).
func (s *service) Hello(h Hello, reply *HelloReply) error {
	return s.c.Hello(h, reply)
}

// NextBatch leases a batch of candidates (RPC method).
func (s *service) NextBatch(req BatchRequest, batch *TaskBatch) error {
	return s.c.NextBatch(req, batch)
}

// ReportBatch reports a batch of executed tests (RPC method).
func (s *service) ReportBatch(rb ResultBatch, ack *BatchAck) error {
	return s.c.ReportBatch(rb, ack)
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
	return nil
}

// runBatched is the work loop: double-buffered leasing (the next
// NextBatch is in flight while the current batch executes), concurrent
// execution across the backend's pool, and size/age-bounded result
// flushing. It returns how many results this manager reported.
func (m *Manager) runBatched() (int, error) {
	workers := m.Concurrency
	if workers <= 0 {
		workers = m.defaultConcurrency()
	}
	flushEvery := m.FlushEvery
	if flushEvery <= 0 {
		flushEvery = DefaultFlushEvery
	}
	executed := 0
	var pending *rpc.Call
	for {
		if pending == nil {
			pending = m.goNextBatch()
		}
		call := <-pending.Done
		pending = nil
		if call.Error != nil {
			return executed, call.Error
		}
		batch := call.Reply.(*TaskBatch)
		if batch.Done {
			return executed, nil
		}
		if batch.Retry {
			sleepRetry(batch.RetryAfterMS)
			continue
		}
		// Request the next batch before executing this one, so leasing
		// and execution overlap instead of alternating — except at Batch
		// 1, which promises no second lease while one is held.
		if m.Batch != 1 {
			pending = m.goNextBatch()
		}
		n, err := m.executeBatch(batch.Tasks, workers, flushEvery)
		executed += n
		if err != nil {
			return executed, err
		}
	}
}

// goNextBatch issues an asynchronous lease request.
func (m *Manager) goNextBatch() *rpc.Call {
	req := BatchRequest{Manager: m.ID, Max: m.Batch, AvgTestNS: m.avgLatency()}
	return m.client.Go("Coordinator.NextBatch", req, new(TaskBatch), nil)
}

// executeBatch fans the batch across workers goroutines and flushes
// accumulated results whenever half the batch is ready or flushEvery
// has passed — large batches amortize the report round trip without
// sitting on finished results. It returns how many results were
// reported.
func (m *Manager) executeBatch(tasks []TaskWire, workers int, flushEvery time.Duration) (int, error) {
	if len(tasks) == 0 {
		return 0, nil
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var abort atomic.Bool
	taskc := make(chan TaskWire)
	resc := make(chan ResultWire, len(tasks))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tw := range taskc {
				if abort.Load() {
					continue
				}
				resc <- m.executeOne(tw)
			}
		}()
	}
	go func() {
		for _, tw := range tasks {
			taskc <- tw
		}
		close(taskc)
		wg.Wait()
		close(resc)
	}()

	flushSize := (len(tasks) + 1) / 2
	buf := make([]ResultWire, 0, flushSize)
	reported := 0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		rb := ResultBatch{Manager: m.ID, Backend: m.backendName, Results: m.internStacks(buf)}
		var ack BatchAck
		if err := m.client.Call("Coordinator.ReportBatch", rb, &ack); err != nil {
			return err
		}
		reported += len(buf)
		buf = buf[:0]
		return nil
	}
	timer := time.NewTimer(flushEvery)
	defer timer.Stop()
	var err error
collect:
	for {
		select {
		case rw, ok := <-resc:
			if !ok {
				break collect
			}
			buf = append(buf, rw)
			if len(buf) >= flushSize {
				if err = flush(); err != nil {
					break collect
				}
			}
		case <-timer.C:
			if err = flush(); err != nil {
				break collect
			}
			timer.Reset(flushEvery)
		}
	}
	if err != nil {
		// Stop executing and wait the workers out, so no goroutine is
		// left touching the runner when the caller Closes it.
		abort.Store(true)
		for range resc {
		}
		return reported, err
	}
	err = flush()
	return reported, err
}

// executeOne converts and runs one leased task, measuring its wall
// clock for the adaptive-batch feedback loop.
func (m *Manager) executeOne(tw TaskWire) ResultWire {
	pt, plan, err := m.convertTask(tw)
	if err != nil {
		// A fault-space hole: report the skip so the lease retires and
		// the engine tallies it.
		return ResultWire{Seq: tw.Seq, Skipped: true}
	}
	start := time.Now()
	out, ex := m.runner.Run(pt.TestID, plan)
	for extra := 1; extra < m.Work; extra++ {
		out, ex = m.runner.Run(pt.TestID, plan)
	}
	m.noteLatency(time.Since(start))
	return ResultWire{
		Seq:        tw.Seq,
		TestID:     pt.TestID,
		Failed:     out.Failed,
		Crashed:    out.Crashed,
		Hung:       out.Hung,
		Injected:   out.Injected,
		CrashID:    out.CrashID,
		Stack:      out.InjectionStack,
		Blocks:     m.encodeCoverage(out),
		ExitStatus: ex.ExitStatus,
		DurationNS: int64(ex.Duration),
	}
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
// strings, so nothing is parsed per task.
func (m *Manager) convertTask(tw TaskWire) (inject.Point, inject.Plan, error) {
	if tw.Sub < 0 || tw.Sub >= len(m.axisNames) {
		return inject.Point{}, inject.Plan{}, fmt.Errorf("rpcnode: task %d names subspace %d of %d", tw.Seq, tw.Sub, len(m.axisNames))
	}
	return m.plugin.ConvertValues(m.axisNames[tw.Sub], tw.Vals)
}

// internStacks applies per-connection stack interning: every non-empty
// stack gets its content hash, and the frames are stripped for stacks
// this manager has already shipped.
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

// noteLatency accumulates measured per-test wall clock; avgLatency is
// the running average reported with each lease request to steer the
// coordinator's adaptive sizing.
func (m *Manager) noteLatency(d time.Duration) {
	m.latSumNS.Add(int64(d))
	m.latN.Add(1)
}

func (m *Manager) avgLatency() int64 {
	n := m.latN.Load()
	if n == 0 {
		return 0
	}
	return m.latSumNS.Load() / n
}

// defaultConcurrency sizes the batch fan-out: a backend advertising
// its own pool width (process backends) bounds it, anything else is
// assumed CPU-bound and fanned one goroutine per core.
func (m *Manager) defaultConcurrency() int {
	if p, ok := m.runner.(backend.Parallel); ok {
		if n := p.Parallelism(); n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}
