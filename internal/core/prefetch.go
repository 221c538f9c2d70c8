package core

// The asynchronous candidate prefetch pipeline and the lease-expiry
// heap — the two data structures Engine.Lease works on, both under the
// narrow lease lock.
//
// Lease generates what it hands out under the explorer lock, so with
// many workers and an expensive explorer (fitness mutation, genetic
// crossover, the portfolio bandit's allocation) lease rounds queue
// behind each other and behind the fold commits' feedback reports.
// With Config.PrefetchDepth != 0 a dedicated generator goroutine
// batch-calls the explorer ahead of demand into a bounded ring of
// pre-generated, budget-stamped candidates, refilled at a low-water
// mark; Lease then is a near-O(batch) ring dequeue plus lease
// bookkeeping, and generates only what the ring cannot supply.
//
// Staleness contract: the generator serializes explorer access with
// fold feedback on the engine's explorer mutex, so the explorer still
// sees a single-threaded Next/Report stream — prefetching only
// reorders it. A prefetched candidate may have been generated up to
// one ring of candidates before the feedback of the tests executing
// concurrently with it, which is the same reordering any parallel
// session already exhibits, bounded here by the ring capacity.
// Explorers opt in via explore.Prefetchable; for anything else the
// engine runs at depth 0. Depth 0 (the default) starts no generator:
// the ring stays empty, every candidate is generated by the Lease that
// hands it out, and a single-worker session keeps strict Next/Report
// alternation and bit-for-bit identical journals.

import (
	"container/heap"
	"time"

	"afex/internal/explore"
)

// PrefetchAdaptive selects the adaptive prefetch-ring capacity: twice
// the engine's current adaptive wire batch (so one full ring feeds
// roughly two lease round trips), re-evaluated at every refill as
// latency observations resize the batch.
const PrefetchAdaptive = -1

// PrefetchState is the prefetch pipeline's snapshot metadata. Ring
// contents are deliberately not exported: like the explorer's internal
// queued set (see the note in explore/state.go), pre-generated
// candidates have never been executed or journaled, so a crash simply
// regenerates them — restoring them would risk double-skipping.
type PrefetchState struct {
	// Depth is the session's configured Config.PrefetchDepth.
	Depth int `json:"depth"`
	// Generated counts candidates the generator stage produced ahead of
	// demand over the session's lifetime (diagnostic only).
	Generated int `json:"generated,omitempty"`
}

// leaseEntry is one outstanding lease in the expiry heap: the
// candidate, the instant after which it may be handed out again, and a
// monotone sequence breaking expiry ties in lease order.
type leaseEntry struct {
	key     string
	c       explore.Candidate
	expires time.Time
	seq     uint64
	idx     int
}

// leaseQueue tracks outstanding leases as a min-heap ordered by
// (expires, seq) plus a key index. Replacing the old map walk, it
// makes expired-lease hand-out deterministic — oldest expiry first,
// lease order among ties — and O(log n) per operation instead of
// O(outstanding) per Lease call. Callers hold e.leaseMu.
type leaseQueue struct {
	entries []*leaseEntry
	byKey   map[string]*leaseEntry
	nextSeq uint64
}

func newLeaseQueue() *leaseQueue {
	return &leaseQueue{byKey: make(map[string]*leaseEntry)}
}

func (q *leaseQueue) Len() int { return len(q.entries) }

func (q *leaseQueue) Less(i, j int) bool {
	a, b := q.entries[i], q.entries[j]
	if !a.expires.Equal(b.expires) {
		return a.expires.Before(b.expires)
	}
	return a.seq < b.seq
}

func (q *leaseQueue) Swap(i, j int) {
	q.entries[i], q.entries[j] = q.entries[j], q.entries[i]
	q.entries[i].idx = i
	q.entries[j].idx = j
}

func (q *leaseQueue) Push(x any) {
	e := x.(*leaseEntry)
	e.idx = len(q.entries)
	q.entries = append(q.entries, e)
}

func (q *leaseQueue) Pop() any {
	old := q.entries
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	q.entries = old[:n-1]
	return e
}

// add tracks a fresh lease expiring at the given instant.
func (q *leaseQueue) add(key string, c explore.Candidate, expires time.Time) {
	e := &leaseEntry{key: key, c: c, expires: expires, seq: q.nextSeq}
	q.nextSeq++
	q.byKey[key] = e
	heap.Push(q, e)
}

// takeExpired re-leases up to max expired candidates, oldest expiry
// first (force-expired entries sort before everything), re-stamping
// each with a fresh expiry so it is not handed out again before
// timeout elapses.
func (q *leaseQueue) takeExpired(now time.Time, max int, timeout time.Duration) []explore.Candidate {
	var out []explore.Candidate
	for len(out) < max && len(q.entries) > 0 {
		top := q.entries[0]
		if !now.After(top.expires) {
			break
		}
		top.expires = now.Add(timeout)
		top.seq = q.nextSeq
		q.nextSeq++
		heap.Fix(q, 0)
		out = append(out, top.c)
	}
	return out
}

// retire removes the lease for key, reporting whether it was
// outstanding; a fold whose lease was already retired is a duplicate.
func (q *leaseQueue) retire(key string) bool {
	e, ok := q.byKey[key]
	if !ok {
		return false
	}
	delete(q.byKey, key)
	heap.Remove(q, e.idx)
	return true
}

// expire force-expires the leases for keys (zero time sorts first), so
// the next Lease hands them out immediately; unknown keys are ignored.
// It returns how many leases were expired.
func (q *leaseQueue) expire(keys []string) int {
	n := 0
	for _, k := range keys {
		if e, ok := q.byKey[k]; ok {
			e.expires = time.Time{}
			e.seq = 0
			heap.Fix(q, e.idx)
			n++
		}
	}
	return n
}

// candRing is the bounded ring of pre-generated candidates. The buffer
// is allocated once per capacity and reused across refills — the
// prefetched hot path allocates nothing per candidate. Callers hold
// e.leaseMu.
type candRing struct {
	buf  []explore.Candidate
	head int
	n    int
}

// ensureCap grows the buffer to at least c slots, preserving contents.
// It never shrinks: an adaptive target that steps down simply leaves
// slack capacity.
func (r *candRing) ensureCap(c int) {
	if c <= len(r.buf) {
		return
	}
	nb := make([]explore.Candidate, c)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = nb
	r.head = 0
}

func (r *candRing) push(c explore.Candidate) {
	if r.n == len(r.buf) {
		r.ensureCap(2*len(r.buf) + 1)
	}
	r.buf[(r.head+r.n)%len(r.buf)] = c
	r.n++
}

// take dequeues up to max candidates into out (appending), zeroing the
// vacated slots so the ring retains no references.
func (r *candRing) take(out []explore.Candidate, max int) []explore.Candidate {
	for max > 0 && r.n > 0 {
		out = append(out, r.buf[r.head])
		r.buf[r.head] = explore.Candidate{}
		r.head = (r.head + 1) % len(r.buf)
		r.n--
		max--
	}
	return out
}

// clear drops all buffered candidates, keeping the buffer for reuse.
func (r *candRing) clear() {
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)%len(r.buf)] = explore.Candidate{}
	}
	r.head, r.n = 0, 0
}

// prefetchEnabled reports whether this engine runs the asynchronous
// pipeline. Immutable after NewEngine, so lock-free.
func (e *Engine) prefetchEnabled() bool { return e.prefetchDepth != 0 }

// prefetchTargetLocked resolves the ring's current capacity target: a
// fixed positive depth verbatim, or twice the adaptive wire batch for
// PrefetchAdaptive. Callers hold e.leaseMu.
func (e *Engine) prefetchTargetLocked() int {
	if e.prefetchDepth > 0 {
		return e.prefetchDepth
	}
	return 2 * e.adaptiveBatchLocked()
}

// startPrefetchLocked lazily launches the generator goroutine on the
// first Lease of a prefetching engine. Callers hold e.leaseMu.
func (e *Engine) startPrefetchLocked() {
	if e.ringStarted || e.ringSealed {
		return
	}
	e.ringStarted = true
	go e.prefetchLoop()
}

// prefetchLoop is the generator stage: it keeps the ring filled to the
// capacity target, within the remaining Iterations budget, waking on
// the low-water signal from Lease. Explorer calls run under e.exMu
// only, so generation overlaps fold commits (which hold e.mu) and
// blocks only for the duration of a batched feedback report — the
// bounded-staleness contract. Budget is reserved (committed) before
// generation and the shortfall refunded after, so concurrent leases
// never overshoot Iterations.
func (e *Engine) prefetchLoop() {
	for {
		e.leaseMu.Lock()
		if e.ringSealed || e.ringExhausted {
			e.leaseMu.Unlock()
			return
		}
		target := e.prefetchTargetLocked()
		e.ring.ensureCap(target)
		want := target - e.ring.n
		if e.cfg.Iterations > 0 {
			if remaining := e.cfg.Iterations - e.committed; want > remaining {
				want = remaining
			}
		}
		if want <= 0 {
			e.leaseMu.Unlock()
			select {
			case <-e.ringWake:
				continue
			case <-e.ringStop:
				return
			}
		}
		e.committed += want
		e.genReserved = want
		e.leaseMu.Unlock()

		e.exMu.Lock()
		next := explore.BatchNext(e.explorer, want)
		e.exMu.Unlock()

		e.leaseMu.Lock()
		e.genReserved = 0
		e.committed -= want - len(next)
		if e.ringSealed {
			// The session sealed while we generated: the candidates were
			// never leased, journaled or counted — they live on in the
			// explorer's regenerable queued set, so dropping them here
			// leaks neither budget nor journal entries.
			e.committed -= len(next)
			e.leaseMu.Unlock()
			return
		}
		for _, c := range next {
			e.ring.push(c)
		}
		e.prefetchGenerated += len(next)
		exhausted := len(next) < want
		if exhausted {
			e.ringExhausted = true
		}
		e.leaseMu.Unlock()
		if exhausted {
			return
		}
	}
}

// sealPrefetch shuts the pipeline down: no candidate generated after
// the seal is ever handed out, and the ring's buffered (never-leased)
// candidates return their budget reservations. Idempotent; called on
// Stop, on the lease-path deadline check, when a fold batch stops the
// session, and by Finish.
func (e *Engine) sealPrefetch() {
	e.leaseMu.Lock()
	defer e.leaseMu.Unlock()
	e.sealPrefetchLocked()
}

func (e *Engine) sealPrefetchLocked() {
	if e.ringSealed {
		return
	}
	e.ringSealed = true
	e.committed -= e.ring.n
	e.ring.clear()
	if e.ringStop != nil {
		close(e.ringStop)
	}
}
