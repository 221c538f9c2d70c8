package rpcnode

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"afex/internal/core"
	"afex/internal/dsl"
	"afex/internal/explore"
	"afex/internal/faultspace"
)

const (
	// DefaultHeartbeat is the beat interval the coordinator announces in
	// its Hello reply, and the one a manager uses when the reply
	// announces none it can use.
	DefaultHeartbeat = time.Second
	// missedBeats is how many beats a manager may miss before the book
	// declares it dead and hands its leases to others.
	missedBeats = 3
	// RetryAfter is how long a manager told to retry waits before it
	// asks again (TaskBatch.RetryAfterMS).
	RetryAfter = time.Millisecond
)

// A Task is one lease in the book's table: the candidate, its scenario
// and axis values, views of that text (so a report re-marshals nothing),
// and its holder.
type Task struct {
	Cand     explore.Candidate
	Vals     []string
	Scenario string
	holder   string
}

// A Grant answers a lease request: tasks in wire form, or none and
// either Done (the session is over) or Retry (leases are out, and one
// may come back; wake closes at the next fold or reap).
type Grant struct {
	Tasks       []TaskWire
	Done, Retry bool
	wake        <-chan struct{}
}

// LeaseBook is the coordinator's lease bookkeeping, one value that the
// wire (Coordinator) and the §7.7 simulation (experiments.Scalability)
// both drive: the seq counter, the lease table with each lease's
// holder, the re-lease queue, the beat table and the per-manager
// counts, and the engine calls leasing and folding make. Its methods
// take the time and return decisions; none waits. Like a sync.Cond's,
// its Locker is held by the caller across every call, and Lease and
// Report release it around the engine's calls, which run outside any
// coordinator-wide lock.
type LeaseBook struct {
	mu        sync.Locker
	engine    *core.Engine
	space     *faultspace.Union
	axisNames [][]string // per subspace, sent once in the Hello reply
	target    string     // the session's; a Hello naming another is refused

	seq    int
	leases map[int]Task
	// relet holds the leases of managers declared dead, in seq order,
	// for Lease to hand out before fresh candidates; leasing counts the
	// Lease calls inside Engine.LeaseFor, whose candidates are out too.
	relet      []Task
	leasing    int
	beats      map[string]time.Time // each live manager's last call
	perManager map[string]int
	// wake is closed at the next fold or reap, for a lessee told to
	// retry; nil while none has been.
	wake   chan struct{}
	closed bool                  // every lease from now on is Done (Close)
	free   [][]core.ExecutedTest // Report's fold buffers, cleared
}

// NewLeaseBook returns an empty book leasing space's candidates from
// engine, guarded by mu.
func NewLeaseBook(engine *core.Engine, space *faultspace.Union, mu sync.Locker) *LeaseBook {
	b := &LeaseBook{
		mu:         mu,
		engine:     engine,
		space:      space,
		axisNames:  make([][]string, len(space.Spaces)),
		leases:     make(map[int]Task),
		beats:      make(map[string]time.Time),
		perManager: make(map[string]int),
	}
	for i := range space.Spaces {
		b.axisNames[i] = dsl.AxisNames(space, i)
	}
	return b
}

// Hello admits manager m by the target it runs: one that names another
// target than the session's is refused, and one that names none (a
// process backend) is admitted. An admitted Hello is a beat.
func (b *LeaseBook) Hello(now time.Time, m, target string) error {
	if target != "" && b.target != "" && target != b.target {
		return fmt.Errorf("manager %q runs target %q, this session explores %q", m, target, b.target)
	}
	b.Beat(now, m)
	return nil
}

// Beat marks m live at now, reaps every manager silent for more than
// missedBeats beats — its leases move, in seq order, to the re-lease
// queue — and returns how many managers are live.
func (b *LeaseBook) Beat(now time.Time, m string) int {
	b.beats[m] = now
	n := len(b.beats)
	maps.DeleteFunc(b.beats, func(_ string, t time.Time) bool { return now.Sub(t) > missedBeats*DefaultHeartbeat })
	if len(b.beats) == n {
		return n
	}
	var seqs []int
	for seq, t := range b.leases {
		if _, live := b.beats[t.holder]; !live {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		b.relet = append(b.relet, b.leases[seq])
		delete(b.leases, seq)
	}
	b.progress()
	return len(b.beats)
}

// Lease hands manager m up to n tasks, dead managers' leases first,
// then fresh candidates, each under a new seq. Engine.LeaseFor folds
// perTest (m's last per-test wall clock, 0 = none) into the latency
// average and sizes the lease: n, or with n ≤ 0 the adaptive size for
// the live managers; n comes off the wire, so a lease is at most
// core.MaxWireBatch. With the re-lease queue empty that one call also
// generates the lease; otherwise the queue is cut to the size first and
// a second call generates what it did not fill. With nothing to hand
// out it answers Retry while leases are out and the engine runs, else
// Done; once the book is closed, Done.
func (b *LeaseBook) Lease(now time.Time, m string, n int, perTest time.Duration) Grant {
	live := b.Beat(now, m)
	if b.closed {
		return Grant{Done: true}
	}
	queued := len(b.relet) > 0
	b.leasing++
	b.mu.Unlock()
	n, cands := b.engine.LeaseFor(perTest, live, n, !queued)
	b.mu.Lock()
	var relet []Task
	if queued && !b.engine.Stopped() {
		k := min(n, len(b.relet))
		relet, b.relet = b.relet[:k:k], b.relet[k:]
	}
	if queued && len(relet) < n {
		b.mu.Unlock()
		_, cands = b.engine.LeaseFor(0, live, n-len(relet), true)
		b.mu.Lock()
	}
	b.leasing--
	if len(relet)+len(cands) == 0 {
		if b.leasing+len(b.leases) == 0 || b.engine.Stopped() {
			b.progress() // a lessee told to retry while this call leased is done too
			return Grant{Done: true}
		}
		if b.wake == nil {
			b.wake = make(chan struct{})
		}
		return Grant{Retry: true, wake: b.wake}
	}
	tasks := make([]TaskWire, 0, len(relet)+len(cands))
	enter := func(t Task) {
		b.seq++
		t.holder = m
		b.leases[b.seq] = t
		tasks = append(tasks, TaskWire{Seq: b.seq, Sub: t.Cand.Point.Sub, Fault: t.Cand.Point.Fault, Vals: t.Vals})
	}
	for _, t := range relet {
		enter(t)
	}
	k := 0
	for _, c := range cands {
		k += len(b.axisNames[c.Point.Sub])
	}
	vals := make([]string, k) // the fresh tasks' values, views of their scenarios
	for _, c := range cands {
		names := b.axisNames[c.Point.Sub]
		v := vals[:len(names):len(names)]
		vals = vals[len(names):]
		enter(Task{Cand: c, Vals: v, Scenario: dsl.Render(b.space, names, c.Point, v)})
	}
	return Grant{Tasks: tasks}
}

// Report folds, in one Engine.FoldBatch, test(i, task) for each i < n
// whose seq(i) manager m holds, retiring the lease, and returns how many
// folded. A seq the book does not have out (a dead manager's among them)
// or another manager holds folds nothing and counts for no one.
func (b *LeaseBook) Report(now time.Time, m string, n int, seq func(int) int, test func(int, Task) core.ExecutedTest) int {
	b.Beat(now, m)
	var ets []core.ExecutedTest
	if k := len(b.free); k > 0 {
		ets, b.free = b.free[k-1], b.free[:k-1]
	}
	for i := 0; i < n; i++ {
		s := seq(i)
		t, ok := b.leases[s]
		if !ok || t.holder != m {
			continue
		}
		delete(b.leases, s)
		ets = append(ets, test(i, t))
	}
	folded := len(ets)
	if folded > 0 {
		b.perManager[m] += folded
		b.mu.Unlock()
		b.engine.FoldBatch(ets)
		b.mu.Lock()
		b.progress()
	}
	clear(ets)
	b.free = append(b.free, ets[:0])
	return folded
}

// Close ends leasing: the coordinator is going away, and every lessee
// told to retry looks again, to be told Done.
func (b *LeaseBook) Close() {
	b.closed = true
	b.progress()
}

// progress closes wake: every lessee told to retry looks again.
func (b *LeaseBook) progress() {
	if b.wake != nil {
		close(b.wake)
		b.wake = nil
	}
}
