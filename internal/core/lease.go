package core

// The engine's clock, and the lease-expiry heap Engine.Lease works on
// under the narrow lease lock.

import (
	"container/heap"
	"time"

	"afex/internal/explore"
)

// clock is the engine's one source of time (see "Time" in the package
// doc). Config.clock nil is wallClock; this package's tests pass a fake.
type clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

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

// takeExpired re-leases up to max expired candidates — a lease expires
// at its stamp — oldest expiry first (force-expired entries sort before
// everything), re-stamping each with a fresh expiry so it is not handed
// out again before timeout elapses.
func (q *leaseQueue) takeExpired(now time.Time, max int, timeout time.Duration) []explore.Candidate {
	var out []explore.Candidate
	for len(out) < max && len(q.entries) > 0 {
		top := q.entries[0]
		if now.Before(top.expires) {
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
