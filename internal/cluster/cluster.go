// Package cluster implements AFEX's result-quality machinery around
// redundancy (§5, §7.4): Levenshtein edit distance between the stack
// traces captured at injection points, equivalence classes ("redundancy
// clusters") of faults whose traces are closer than a threshold, and the
// online feedback weight that steers exploration away from scenarios that
// re-trigger manifestations of the same underlying bug.
//
// Set is indexed so that Add and MaxSimilarity stay fast as sessions
// grow: an exact-match hash answers repeated stacks in O(1); a frame
// posting index (frame → the remembered stacks holding it, with how
// often) adds up, for every stack sharing a frame with the probe, how
// many frames the two share as multisets, which bounds the edit
// distance from below by max(len) − shared; stacks sharing nothing are
// never touched, and every surviving comparison uses a banded
// Levenshtein bounded by the distance the current best similarity still
// allows. MaxSimilarity results are additionally memoized by exact
// stack key with a log position, so a repeated probe only rescans the
// stacks added since it was last answered. Results are identical to a
// naive linear scan with the full DP — the screening only skips
// comparisons whose distance provably cannot win.
//
// The frame index is built only by similarity questions: a set that is
// only ever added to (a failure or crash set, a session without
// feedback, a freshly restored set) never builds one.
//
// The similarity memory holds each distinct stack once: every question
// asked of it is "was this stack seen" or "how close is the nearest
// one", and a repeat can never beat its first copy at either. Memory,
// scans and snapshots (state.go) therefore scale with the distinct
// stacks of a session, not with its length.
//
// Set is safe for concurrent use: read-only similarity screening
// (PeekSimilarity, View) takes a shared lock so executor workers can
// screen in parallel, while Add/AddKeyed/ResolveSimilarity/MaxSimilarity
// serialize under the exclusive lock, as does a peek that must walk a
// frame index behind the log (only the exclusive lock extends it).
package cluster

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Levenshtein returns the edit distance between two stack traces,
// computed over whole frames (not characters): the minimum number of
// frame insertions, deletions and substitutions turning a into b. Frame
// granularity is what makes the distance meaningful for call stacks —
// a one-frame difference deep in the stack costs 1 regardless of how long
// the frame strings are.
func Levenshtein(a, b []string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// boundedLevenshtein returns the frame edit distance between a and b
// when it is at most limit, and limit+1 otherwise. It computes only the
// ±limit diagonal band of the DP matrix, so screening candidates against
// a clustering threshold costs O(len × limit) instead of O(len²). Its two
// rows live on the stack for stacks of up to 64 frames.
func boundedLevenshtein(a, b []string, limit int) int {
	la, lb := len(a), len(b)
	if la > lb {
		a, b = b, a
		la, lb = lb, la
	}
	if lb-la > limit {
		return limit + 1
	}
	inf := limit + 1
	var rows [2][65]int
	prev, cur := rows[0][:], rows[1][:]
	if lb >= len(prev) {
		prev, cur = make([]int, lb+1), make([]int, lb+1)
	}
	prev, cur = prev[:lb+1], cur[:lb+1]
	for j := range prev {
		if j <= limit {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= la; i++ {
		lo, hi := i-limit, i+limit
		if lo < 1 {
			lo = 1
		}
		if hi > lb {
			hi = lb
		}
		// Seed the out-of-band neighbours this row reads.
		if lo == 1 {
			if i <= limit {
				cur[0] = i
			} else {
				cur[0] = inf
			}
		} else {
			cur[lo-1] = inf
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			if m > inf {
				m = inf
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if hi < lb {
			cur[hi+1] = inf // next row's out-of-band read
		}
		if rowMin >= inf {
			return inf // the whole band saturated; distance exceeds limit
		}
		prev, cur = cur, prev
	}
	if prev[lb] > limit {
		return inf
	}
	return prev[lb]
}

// Similarity maps edit distance to [0,1]: 1 for identical traces, 0 for
// completely unrelated ones. This is the linear scale of §7.4 ("100%
// similarity ends up zero-ing the fitness, while 0% similarity leaves
// the fitness unmodified").
func Similarity(a, b []string) float64 {
	la, lb := len(a), len(b)
	max := la
	if lb > max {
		max = lb
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(max)
}

// stackKey is a collision-free encoding of a stack (each frame is
// length-prefixed, so no frame content can alias the separator).
func stackKey(stack []string) string {
	size := 0
	for _, fr := range stack {
		size += len(strconv.Itoa(len(fr))) + 1 + len(fr)
	}
	var b strings.Builder
	b.Grow(size)
	for _, fr := range stack {
		b.WriteString(strconv.Itoa(len(fr)))
		b.WriteByte(':')
		b.WriteString(fr)
	}
	return b.String()
}

// StackKey exposes the exact-stack encoding so callers can compute the
// key once, off the hot path, and thread it through AddKeyed,
// PeekSimilarity and ResolveSimilarity.
func StackKey(stack []string) string { return stackKey(stack) }

// posting is one entry of the frame index: a logged stack holding the
// frame, and how many times it does.
type posting struct {
	stack, count int32
}

// walkScratch is a walk's working memory: the shared-frame count of
// every indexed stack (all zero between walks), the stacks touched, and
// the touched stacks ordered by their count.
type walkScratch struct {
	shared, touched, order []int32
	starts                 []int
}

// simMemo is a memoized MaxSimilarity answer: the best similarity over
// the first upto entries of the set's append-only stack log. A stale
// entry is still useful — only log[upto:] needs rescanning.
type simMemo struct {
	best float64
	upto int
}

// nearest is AddKeyed's memoized answer for a remembered stack that is
// not a representative: the cluster that absorbed it, at what distance,
// and how many clusters existed then (0: not asked yet). Clusters are
// append-only and their representatives immutable, so the answer stays
// exact for clusters[:upto] forever, as a simMemo does for the log.
type nearest struct {
	cluster, dist, upto int
}

// Set maintains redundancy clusters incrementally. Each added stack is
// either absorbed by the nearest existing cluster (distance to its
// representative ≤ Threshold) or founds a new one. Every occurrence is
// counted in its cluster's Members; the similarity memory remembers a
// stack only the first time its key is seen.
type Set struct {
	// Threshold is the maximum edit distance (in frames) for two traces
	// to land in the same cluster.
	Threshold int

	mu       sync.RWMutex
	clusters []Cluster

	// repByKey maps a representative's exact stack to its cluster: the
	// O(1) fast path for the overwhelmingly common case of a re-triggered
	// identical trace.
	repByKey map[string]int

	// The stack memory behind MaxSimilarity: the exact-match set, each
	// key with the cluster that last absorbed its stack.
	allByKey map[string]nearest

	// log records each distinct remembered stack in first-seen order, and
	// logKeys the key each was remembered under (what ExportState orders
	// by, so a snapshot never rebuilds a key). Both are append-only, which
	// gives similarity answers a version: an answer computed at log
	// length v stays exact for the first v stacks forever, so stale
	// answers are repaired by scanning log[v:] only.
	log     [][]string
	logKeys []string
	order   memoryOrder // the key order of the last export's log prefix
	// memo caches MaxSimilarity by exact stack key. Entries are deleted
	// when their own stack is added (the exact-match hash answers 1 from
	// then on) and extended lazily via the log when stale.
	memo map[string]simMemo

	// postings is the frame index over log[:indexed]: each frame value
	// with the stacks holding it. Only the write lock extends it, and
	// only for a similarity question (see index).
	postings map[string][]posting
	indexed  int
	// scratch is the walks' working memory, taken with TryLock: a walker
	// that finds it taken (another walks under the shared lock) brings
	// its own.
	scratchMu sync.Mutex
	scratch   walkScratch
}

// Cluster is one redundancy equivalence class.
type Cluster struct {
	// Representative is the first stack that founded the cluster; AFEX
	// reports one representative test per cluster for inclusion in
	// regression suites (§6).
	Representative []string
	// Members lists the ids (caller-assigned, e.g. test record indices)
	// of all faults in the class.
	Members []int
}

// NewSet returns a Set with the given frame-distance threshold. A
// threshold of 0 clusters only identical traces.
func NewSet(threshold int) *Set {
	return &Set{Threshold: threshold}
}

// init lazily allocates the indexes, so zero-value Sets keep working.
func (s *Set) init() {
	if s.repByKey == nil {
		s.repByKey = make(map[string]int)
		s.allByKey = make(map[string]nearest)
		s.memo = make(map[string]simMemo)
	}
}

// Len returns the number of clusters.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.clusters)
}

// Clusters returns the clusters, largest first. The returned slice is a
// copy; members alias the internal storage.
func (s *Set) Clusters() []Cluster {
	s.mu.RLock()
	out := append([]Cluster(nil), s.clusters...)
	s.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Members) > len(out[j].Members) })
	return out
}

// remember logs one stack, not yet in the MaxSimilarity memory, under
// its key. The set keeps stored as it is and never writes to it.
func (s *Set) remember(key string, stored []string) {
	s.allByKey[key] = nearest{}
	s.log = append(s.log, stored)
	s.logKeys = append(s.logKeys, key)
}

// remembered reports whether the exact stack is in the memory.
func (s *Set) remembered(key string) bool {
	_, ok := s.allByKey[key]
	return ok
}

// Add inserts the stack with caller id and returns the cluster index it
// joined and whether it founded a new cluster.
func (s *Set) Add(id int, stack []string) (clusterID int, isNew bool) {
	return s.AddKeyed(id, stack, stackKey(stack))
}

// AddKeyed is Add with the stack key precomputed by the caller (see
// StackKey), so the fold pipeline hashes each injection stack exactly
// once across feedback, clustering and journaling.
func (s *Set) AddKeyed(id int, stack []string, key string) (clusterID int, isNew bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.init()
	// A repeat adds nothing to the memory: its first copy already answers
	// every similarity question at least as well.
	near, repeat := s.allByKey[key]
	var stored []string
	if !repeat {
		// This exact stack now answers MaxSimilarity 1 via the exact-match
		// hash; its memo entry (if any) is dead weight.
		delete(s.memo, key)
		stored = append([]string(nil), stack...)
		s.remember(key, stored)
	}

	// Exact fast path: a stack identical to a representative is at
	// distance 0, the unbeatable minimum (representatives are pairwise
	// distinct, so the match is unique).
	if ci, ok := s.repByKey[key]; ok {
		s.clusters[ci].Members = append(s.clusters[ci].Members, id)
		return ci, false
	}

	// Only clusters whose representative has a frame count within
	// ±Threshold can be at distance ≤ Threshold (edit distance is at
	// least the length difference); screen exactly those, lowest cluster
	// index first so tie-breaking matches the historical linear scan —
	// and only those founded since this stack was last absorbed, which a
	// nearer one must beat outright. The screen is the banded distance
	// bounded by what would still win, and — since the exact probe above
	// ruled out distance 0 — a distance-1 hit is final: no later cluster
	// can tie-break it.
	la := len(stack)
	best, bestDist := -1, s.Threshold+1
	if near.upto > 0 {
		best, bestDist = near.cluster, near.dist
	}
	for i := near.upto; i < len(s.clusters) && bestDist > 1; i++ {
		rep := s.clusters[i].Representative
		if gap := len(rep) - la; gap >= bestDist || -gap >= bestDist {
			continue
		}
		if d := boundedLevenshtein(stack, rep, bestDist-1); d < bestDist {
			best, bestDist = i, d
		}
	}
	if best >= 0 {
		s.allByKey[key] = nearest{cluster: best, dist: bestDist, upto: len(s.clusters)}
		s.clusters[best].Members = append(s.clusters[best].Members, id)
		return best, false
	}

	if stored == nil {
		stored = append([]string(nil), stack...)
	}
	ci := len(s.clusters)
	s.clusters = append(s.clusters, Cluster{
		Representative: stored,
		Members:        []int{id},
	})
	s.repByKey[key] = ci
	return ci, true
}

// MaxSimilarity returns the highest similarity between stack and any
// stack previously added, or 0 if none has been added. This is the
// feedback signal: fitness is scaled by (1 - MaxSimilarity), so a
// scenario identical to a known one contributes nothing and a novel one
// keeps its full fitness.
//
// The answer is memoized by exact stack key: injection at the same call
// site reproduces the same stack, so repeated probes dominate real
// sessions, and a repeat only rescans the stacks added since the memo
// was written.
func (s *Set) MaxSimilarity(stack []string) float64 {
	key := stackKey(stack)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index()
	best, _ := s.answer(stack, key)
	s.memoize(key, best)
	return best
}

// PeekSimilarity is the read-only precompute half of MaxSimilarity: it
// answers under the shared lock (never writing the memo, so any number
// of executor workers can screen concurrently) and returns the log
// version the answer is exact for. The committing side passes both to
// ResolveSimilarity, which repairs the answer against any stacks added
// in between — making the pair exactly equivalent to calling
// MaxSimilarity at commit time. Only a probe that must walk a frame
// index behind the log takes the exclusive lock, to extend it.
func (s *Set) PeekSimilarity(stack []string, key string) (sim float64, version int) {
	s.mu.RLock()
	sim, ok := s.answer(stack, key)
	version = len(s.log)
	s.mu.RUnlock()
	if ok {
		return sim, version
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index()
	sim, _ = s.answer(stack, key)
	return sim, len(s.log)
}

// ResolveSimilarity finalizes a PeekSimilarity answer under the write
// lock: it extends sim over the stacks logged since version and memoizes
// the result. The return value equals what MaxSimilarity(stack) would
// compute right now.
func (s *Set) ResolveSimilarity(stack []string, key string, sim float64, version int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index()
	if version < len(s.log) {
		sim = s.scanLog(stack, sim, version)
	}
	s.memoize(key, sim)
	return sim
}

// answer is MaxSimilarity against the memory as it stands, memo read but
// not written: 1 for a remembered stack, a memo repaired over the stacks
// logged since, or a walk of the frame index. ok is false when only a
// walk would do and the index is behind the log.
func (s *Set) answer(stack []string, key string) (sim float64, ok bool) {
	if len(s.log) == 0 {
		return 0, true
	}
	if s.remembered(key) {
		return 1, true
	}
	if m, ok := s.memo[key]; ok {
		return s.scanLog(stack, m.best, m.upto), true
	}
	if s.indexed < len(s.log) {
		return 0, false
	}
	return s.walk(stack), true
}

// memoize records best as the answer for a stack not in the memory.
func (s *Set) memoize(key string, best float64) {
	if len(s.log) == 0 || s.remembered(key) {
		return
	}
	if s.memo == nil {
		s.memo = make(map[string]simMemo)
	}
	s.memo[key] = simMemo{best: best, upto: len(s.log)}
}

// frameCount returns how often stack[i] occurs in stack, or 0 when it
// already occurs before i, so each distinct frame is counted once.
func frameCount(stack []string, i int) int32 {
	f := stack[i]
	for _, g := range stack[:i] {
		if g == f {
			return 0
		}
	}
	n := int32(1)
	for _, g := range stack[i+1:] {
		if g == f {
			n++
		}
	}
	return n
}

// index extends the frame index over the stacks logged since it was
// last extended. Write lock held.
func (s *Set) index() {
	if s.indexed == len(s.log) {
		return
	}
	if s.postings == nil {
		s.postings = make(map[string][]posting)
	}
	for ; s.indexed < len(s.log); s.indexed++ {
		stack := s.log[s.indexed]
		for i, f := range stack {
			if n := frameCount(stack, i); n > 0 {
				s.postings[f] = append(s.postings[f], posting{int32(s.indexed), n})
			}
		}
	}
}

// walk computes the best similarity against log[:indexed], which must
// be the whole log. Posting by posting it adds up how many frames each
// remembered stack shares with the probe (as multisets), and an
// alignment keeps at most that many frames, so the edit distance is at
// least max(la,lb) − shared. Stacks are visited most-shared first; one
// runs the banded DP only when that bound is within the distance that
// would still beat the best so far, and the walk stops once even a
// stack no longer than the probe could not. A stack sharing no frame is
// at similarity 0 and never touched.
func (s *Set) walk(stack []string) float64 {
	sc := &s.scratch
	if s.scratchMu.TryLock() {
		defer s.scratchMu.Unlock()
	} else {
		sc = new(walkScratch)
	}
	if len(sc.shared) < s.indexed {
		sc.shared = make([]int32, max(s.indexed, 2*len(sc.shared)))
	}
	shared, touched := sc.shared, sc.touched[:0]
	for i, f := range stack {
		if n := frameCount(stack, i); n > 0 {
			for _, p := range s.postings[f] {
				if shared[p.stack] == 0 {
					touched = append(touched, p.stack)
				}
				shared[p.stack] += min(n, p.count)
			}
		}
	}
	// Counting sort by shared frames, most first.
	la := len(stack)
	starts := append(sc.starts[:0], make([]int, la+2)...)
	for _, at := range touched {
		starts[la-int(shared[at])+1]++
	}
	for c := 1; c < len(starts); c++ {
		starts[c] += starts[c-1]
	}
	order := append(sc.order[:0], touched...)
	for _, at := range touched {
		c := la - int(shared[at])
		order[starts[c]] = at
		starts[c]++
	}

	best := 0.0
	floor := simLimit(best, la)
	for _, at := range order {
		n := int(shared[at])
		if la-n > floor {
			break // no stack no longer than la wins, and longer ones do worse
		}
		other := s.log[at]
		maxLen := max(la, len(other))
		limit := floor
		if maxLen > la {
			limit = simLimit(best, maxLen)
		}
		if maxLen-n > limit {
			continue
		}
		if sim, ok := beatSim(stack, other, maxLen, limit); ok && sim > best {
			best = sim
			floor = simLimit(best, la)
		}
	}
	for _, at := range touched {
		shared[at] = 0
	}
	sc.touched, sc.order, sc.starts = touched, order, starts
	return best
}

// simLimit returns the largest edit distance d whose similarity
// 1 - d/maxLen still beats best, or -1 if none does. The two adjustment
// loops pin the boundary exactly regardless of how the initial
// floating-point guess rounded, so screening decisions match the naive
// full-DP comparison bit for bit.
func simLimit(best float64, maxLen int) int {
	limit := int((1 - best) * float64(maxLen))
	if limit > maxLen {
		limit = maxLen
	}
	for limit >= 0 && 1-float64(limit)/float64(maxLen) <= best {
		limit--
	}
	for limit < maxLen && 1-float64(limit+1)/float64(maxLen) > best {
		limit++
	}
	return limit
}

// beatSim runs the banded DP and reports the similarity when the
// distance is within limit. The similarity expression matches
// Similarity() exactly, so screened answers are bit-identical to naive
// ones.
func beatSim(a, b []string, maxLen, limit int) (float64, bool) {
	d := boundedLevenshtein(a, b, limit)
	if d > limit {
		return 0, false
	}
	return 1 - float64(d)/float64(maxLen), true
}

// scanLog extends a similarity answer that is exact for log[:from] over
// the suffix log[from:], returning the best over the whole memory. This
// is what makes both memo entries and precomputed (stale) screening
// answers repairable in time proportional to what was added since.
func (s *Set) scanLog(stack []string, best float64, from int) float64 {
	if best >= 1 {
		return best
	}
	la := len(stack)
	for _, other := range s.log[from:] {
		lb := len(other)
		maxLen := la
		if lb > maxLen {
			maxLen = lb
		}
		if maxLen == 0 {
			return 1 // both empty: identical traces
		}
		limit := simLimit(best, maxLen)
		if limit < 0 {
			continue
		}
		if sim, ok := beatSim(stack, other, maxLen, limit); ok && sim > best {
			best = sim
			if best >= 1 {
				return best
			}
		}
	}
	return best
}

// FeedbackWeight maps a similarity in [0,1] to the fitness multiplier of
// §7.4's linear scale.
func FeedbackWeight(similarity float64) float64 {
	if similarity < 0 {
		return 1
	}
	if similarity > 1 {
		return 0
	}
	return 1 - similarity
}
