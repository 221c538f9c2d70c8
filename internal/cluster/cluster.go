// Package cluster implements AFEX's result-quality machinery around
// redundancy (§5, §7.4): Levenshtein edit distance between the stack
// traces captured at injection points, equivalence classes ("redundancy
// clusters") of faults whose traces are closer than a threshold, and the
// online feedback weight that steers exploration away from scenarios that
// re-trigger manifestations of the same underlying bug.
//
// Set is indexed so that Add and MaxSimilarity stay fast as sessions
// grow: an exact-match hash answers repeated stacks in O(1); stacks are
// bucketed by frame count so the edit-distance lower bound |len(a)-len(b)|
// prunes whole buckets; within a bucket a frame-signature inverted index
// (first-k frames) shortlists candidates before any DP runs; and every
// surviving comparison uses a banded Levenshtein bounded by the distance
// the current best similarity still allows. MaxSimilarity results are
// additionally memoized by exact stack key with a log position, so a
// repeated probe only rescans the stacks added since it was last
// answered. Results are identical to a naive linear scan with the full
// DP — the screening only skips comparisons whose distance provably
// cannot win.
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
// serialize under the exclusive lock.
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

// sigFrames is how many head frames each stack is posted under in the
// bucket's inverted index. A banded query with edit limit L can consult
// the index only when L+1 ≤ sigFrames (see scanBucket); 4 covers the
// high-similarity limits that matter once any decent match is known.
const sigFrames = 4

// lenBucket holds the distinct remembered stacks of one frame count, with
// a frame-signature inverted index over the first sigFrames frames.
type lenBucket struct {
	// stacks in insertion order; byHead posting lists refer into it.
	stacks [][]string
	// byHead maps a frame value appearing among a stack's first
	// sigFrames frames to the indices of the stacks containing it.
	byHead map[string][]int
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

	// The stack memory behind MaxSimilarity: the exact-match set (each
	// key with the cluster that last absorbed its stack) plus
	// length/frame-signature buckets of every distinct stack added.
	allByKey map[string]nearest
	allByLen map[int]*lenBucket
	minLen   int
	maxLen   int

	// log records each distinct remembered stack in first-seen order, and
	// logKeys the key each was remembered under (what ExportState orders
	// by, so a snapshot never rebuilds a key). Both are append-only, which
	// gives similarity answers a version: an answer computed at log
	// length v stays exact for the first v stacks forever, so stale
	// answers are repaired by scanning log[v:] only.
	log     [][]string
	logKeys []string
	// memo caches MaxSimilarity by exact stack key. Entries are deleted
	// when their own stack is added (the exact-match hash answers 1 from
	// then on) and extended lazily via the log when stale.
	memo map[string]simMemo
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
		s.allByLen = make(map[int]*lenBucket)
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

// remember indexes one stack, not yet in the MaxSimilarity memory, under
// its key. The set keeps stored as it is and never writes to it.
func (s *Set) remember(key string, stored []string) {
	s.allByKey[key] = nearest{}
	l := len(stored)
	b := s.allByLen[l]
	if b == nil {
		b = &lenBucket{byHead: make(map[string][]int)}
		s.allByLen[l] = b
	}
	idx := len(b.stacks)
	b.stacks = append(b.stacks, stored)
	head := stored
	if len(head) > sigFrames {
		head = head[:sigFrames]
	}
	for i, f := range head {
		dup := false
		for j := 0; j < i; j++ {
			if head[j] == f {
				dup = true
				break
			}
		}
		if !dup {
			b.byHead[f] = append(b.byHead[f], idx)
		}
	}
	if len(s.log) == 0 || l < s.minLen {
		s.minLen = l
	}
	if l > s.maxLen {
		s.maxLen = l
	}
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
	return s.maxSimilarityLocked(stack, key)
}

// maxSimilarityLocked answers MaxSimilarity under the write lock,
// reading and refreshing the memo.
func (s *Set) maxSimilarityLocked(stack []string, key string) float64 {
	if len(s.log) == 0 {
		return 0
	}
	if s.remembered(key) {
		return 1
	}
	var best float64
	if m, ok := s.memo[key]; ok {
		best = s.scanLog(stack, m.best, m.upto)
	} else {
		best = s.walkBuckets(stack)
	}
	if s.memo == nil {
		s.memo = make(map[string]simMemo)
	}
	s.memo[key] = simMemo{best: best, upto: len(s.log)}
	return best
}

// PeekSimilarity is the read-only precompute half of MaxSimilarity: it
// answers under the shared lock (never writing the memo, so any number
// of executor workers can screen concurrently) and returns the log
// version the answer is exact for. The committing side passes both to
// ResolveSimilarity, which repairs the answer against any stacks added
// in between — making the pair exactly equivalent to calling
// MaxSimilarity at commit time.
func (s *Set) PeekSimilarity(stack []string, key string) (sim float64, version int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.log) == 0 {
		return 0, 0
	}
	if s.remembered(key) {
		return 1, len(s.log)
	}
	var best float64
	if m, ok := s.memo[key]; ok {
		best = s.scanLog(stack, m.best, m.upto)
	} else {
		best = s.walkBuckets(stack)
	}
	return best, len(s.log)
}

// ResolveSimilarity finalizes a PeekSimilarity answer under the write
// lock: it extends sim over the stacks logged since version and memoizes
// the result. The return value equals what MaxSimilarity(stack) would
// compute right now.
func (s *Set) ResolveSimilarity(stack []string, key string, sim float64, version int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if version < len(s.log) {
		sim = s.scanLog(stack, sim, version)
	}
	if !s.remembered(key) {
		if s.memo == nil {
			s.memo = make(map[string]simMemo)
		}
		s.memo[key] = simMemo{best: sim, upto: len(s.log)}
	}
	return sim
}

// walkBuckets computes the best similarity against the whole memory by
// walking length buckets outward from len(stack). A bucket of length lb
// cannot beat similarity 1 - |la-lb|/max(la,lb), and that bound only
// decays as |la-lb| grows, so the walk stops as soon as the best
// similarity found dominates both directions — typically after a couple
// of buckets.
func (s *Set) walkBuckets(stack []string) float64 {
	la := len(stack)
	best := 0.0
	maxD := la - s.minLen
	if d := s.maxLen - la; d > maxD {
		maxD = d
	}
	for d := 0; d <= maxD; d++ {
		// Upper bounds on similarity for the two buckets at offset d.
		ubLow, ubHigh := -1.0, -1.0
		if lb := la - d; lb >= s.minLen && la > 0 {
			ubLow = float64(lb) / float64(la)
		}
		if lb := la + d; lb <= s.maxLen {
			ubHigh = float64(la) / float64(lb)
		}
		if ubLow <= best && ubHigh <= best {
			break // no farther bucket can win either
		}
		if ubLow > best {
			best = s.scanBucket(s.allByLen[la-d], stack, best)
		}
		if d > 0 && ubHigh > best {
			best = s.scanBucket(s.allByLen[la+d], stack, best)
		}
		if best >= 1 {
			break
		}
	}
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

// shareTailFrame reports whether a and b share a frame value within
// their last k frames — a necessary condition for lev(a,b) < k (the
// last kept frame of an optimal alignment sits within the last k frames
// of both stacks), used to prune index candidates before the DP.
func shareTailFrame(a, b []string, k int) bool {
	ai := len(a) - k
	if ai < 0 {
		ai = 0
	}
	bi := len(b) - k
	if bi < 0 {
		bi = 0
	}
	for _, fa := range a[ai:] {
		for _, fb := range b[bi:] {
			if fa == fb {
				return true
			}
		}
	}
	return false
}

// scanBucket scans one length bucket for a similarity beating best.
//
// The bucket has a fixed stack length, so the edit limit that could
// still beat best is fixed too (simLimit). When that limit L satisfies
// L < len(stack) and L+1 ≤ sigFrames, any stack within distance L must
// share a frame with the probe among the first L+1 frames of both (an
// optimal alignment keeps ≥ len-L frames; at most L edits precede the
// first kept one on either side) — so the byHead inverted index
// shortlists the only possible winners and everything else is skipped
// without running any DP. The symmetric tail condition prunes the
// shortlist further. Survivors are verified with the banded DP, whose
// band shrinks as best improves.
func (s *Set) scanBucket(b *lenBucket, stack []string, best float64) float64 {
	if b == nil || len(b.stacks) == 0 {
		return best
	}
	la, lb := len(stack), len(b.stacks[0])
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	limit := simLimit(best, maxLen)
	if limit < 0 {
		return best
	}
	if limit < la && limit+1 <= sigFrames {
		k := limit + 1
		var visited map[int]struct{}
		for i := 0; i < k; i++ {
			for _, idx := range b.byHead[stack[i]] {
				if visited == nil {
					visited = make(map[int]struct{}, 16)
				}
				if _, dup := visited[idx]; dup {
					continue
				}
				visited[idx] = struct{}{}
				other := b.stacks[idx]
				if !shareTailFrame(stack, other, k) {
					continue
				}
				if sim, ok := beatSim(stack, other, maxLen, limit); ok && sim > best {
					best = sim
					limit = simLimit(best, maxLen)
					if limit < 0 {
						return best
					}
				}
			}
		}
		return best
	}
	for _, other := range b.stacks {
		if sim, ok := beatSim(stack, other, maxLen, limit); ok && sim > best {
			best = sim
			limit = simLimit(best, maxLen)
			if limit < 0 {
				return best
			}
		}
	}
	return best
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
