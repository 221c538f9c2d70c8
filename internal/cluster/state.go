package cluster

// Set serialization for the persistent exploration store: a snapshot of
// a Set's clusters and similarity memory that rebuilds byte-for-byte
// equivalent behaviour without re-running the clustering over every
// stack. Cluster indices, representatives and member ids are preserved
// exactly; the exact-match hash is rebuilt on import, a session's sets in
// one call that keys a stack they share once; the frame index and
// similarity memo are derived state that the first similarity question
// rebuilds (a restored set nobody asks builds no index).
//
// A snapshot costs what the set holds, not what the session ran: the
// memory is the distinct stacks, exported in the order of the keys they
// were remembered under (stored beside the log, never rebuilt), and
// nothing behind the view is copied — clusters, members and stacks are
// append-only and never mutated in place. The set keeps the order the
// last export left, so the next sorts only the stacks logged since and
// merges them in.

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"
)

// SetState is a serializable snapshot of a Set.
type SetState struct {
	Threshold int `json:"threshold"`
	// Clusters preserves cluster order (indices are cluster ids, recorded
	// in session records).
	Clusters []ClusterState `json:"clusters"`
	// Stacks is the MaxSimilarity memory: each distinct remembered stack
	// once, sorted by stack key for stable snapshot bytes (order carries
	// no meaning). States written before the memory deduplicated repeat a
	// stack per occurrence; import skips the repeats.
	Stacks [][]string `json:"stacks"`
}

// ClusterState is one serialized redundancy cluster.
type ClusterState struct {
	Representative []string `json:"rep"`
	Members        []int    `json:"members"`
}

// SetView is a consistent point-in-time capture of a Set, taken in
// O(#clusters) under the shared lock. Ordering the O(#distinct stacks)
// memory happens in ExportState, under no lock of the set's: the view
// pins slice lengths, and the underlying arrays are append-only (cluster
// representatives, member lists and logged stacks are never mutated in
// place), so the Set can keep absorbing stacks while a snapshot
// serializes.
type SetView struct {
	threshold int
	clusters  []clusterView
	stacks    [][]string
	keys      []string
	order     *memoryOrder
}

// memoryOrder is the memory's key order as the last export left it: the
// log positions of the stacks it covered, sorted by their keys. Each
// export that adds to it makes a new slice, so an order handed out is
// never written.
type memoryOrder struct {
	mu sync.Mutex
	at []int32
}

// sorted returns the positions of the stacks keyed by keys — a prefix of
// the log — in key order, sorting only the ones past the last export's
// and merging them in (all of them, for a view older than that export).
func (o *memoryOrder) sorted(keys []string) []int32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, prev := len(keys), o.at
	if len(prev) == n {
		return prev
	} else if len(prev) > n {
		prev = nil
	}
	at := make([]int32, n)
	fresh := at[:n-len(prev)]
	for i := range fresh {
		fresh[i] = int32(len(prev) + i)
	}
	sort.Slice(fresh, func(i, j int) bool { return keys[fresh[i]] < keys[fresh[j]] })
	// Merged from the back, a write never lands on a fresh position still
	// to be read.
	for i, j, k := len(fresh)-1, len(prev)-1, n-1; j >= 0; k-- {
		if i >= 0 && keys[fresh[i]] > keys[prev[j]] {
			at[k], i = fresh[i], i-1
		} else {
			at[k], j = prev[j], j-1
		}
	}
	o.at = at
	return at
}

type clusterView struct {
	rep     []string
	members []int
}

// View captures the set for export without blocking writers for the
// duration of the copy.
func (s *Set) View() *SetView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := &SetView{threshold: s.Threshold, stacks: s.log, keys: s.logKeys, order: &s.order}
	v.clusters = make([]clusterView, len(s.clusters))
	for i := range s.clusters {
		v.clusters[i] = clusterView{
			rep:     s.clusters[i].Representative,
			members: s.clusters[i].Members,
		}
	}
	return v
}

// ExportState materializes the captured view as a serializable
// snapshot. Lock-free; see SetView. The state aliases the set's
// append-only storage (capacity clipped, so appending to it reallocates):
// it is for encoding or NewSetsFromState, and must not be modified in
// place.
func (v *SetView) ExportState() *SetState {
	st := &SetState{Threshold: v.threshold}
	st.Clusters = make([]ClusterState, len(v.clusters))
	for i, c := range v.clusters {
		st.Clusters[i] = ClusterState{
			Representative: c.rep[:len(c.rep):len(c.rep)],
			Members:        c.members[:len(c.members):len(c.members)],
		}
	}
	if len(v.stacks) > 0 {
		// Keys are distinct, so the order — and the snapshot's bytes — are
		// a function of the set's contents alone.
		st.Stacks = make([][]string, len(v.stacks))
		for i, at := range v.order.sorted(v.keys) {
			st.Stacks[i] = v.stacks[at]
		}
	}
	return st
}

// ExportState snapshots the set.
func (s *Set) ExportState() *SetState {
	return s.View().ExportState()
}

// NewSetsFromState rebuilds a session's Sets from their snapshots, in
// order; each clusters and scores future stacks exactly as the exporting
// Set would have. A nil state is an error, not an empty set, so a
// snapshot missing its cluster sets falls back to journal replay; an
// error comes with the position of its state. The sets adopt the states'
// representatives, member lists and stacks — a SetState is read-only to
// everyone — each slice clipped, so the first member one appends to a
// cluster reallocates. A stack the states share (a decoded snapshot holds
// each distinct stack once) has its key rendered once, for every set.
func NewSetsFromState(states ...*SetState) ([]*Set, int, error) {
	type stackID struct {
		*string
		int
	}
	keys := make(map[stackID]string)
	keyOf := func(stack []string) string {
		id := stackID{unsafe.SliceData(stack), len(stack)}
		if _, ok := keys[id]; !ok {
			keys[id] = stackKey(stack)
		}
		return keys[id]
	}
	sets := make([]*Set, len(states))
	for at, st := range states {
		if st == nil {
			return nil, at, fmt.Errorf("cluster: nil set snapshot")
		}
		s := &Set{
			Threshold: st.Threshold,
			clusters:  make([]Cluster, 0, len(st.Clusters)),
			repByKey:  make(map[string]int, len(st.Clusters)),
			allByKey:  make(map[string]nearest, len(st.Stacks)),
			memo:      make(map[string]simMemo),
			log:       make([][]string, 0, len(st.Stacks)),
			logKeys:   make([]string, 0, len(st.Stacks)),
		}
		for i, c := range st.Clusters {
			if len(c.Members) == 0 {
				return nil, at, fmt.Errorf("cluster: snapshot cluster %d has no members", i)
			}
			rep := c.Representative[:len(c.Representative):len(c.Representative)]
			key := keyOf(rep)
			if _, dup := s.repByKey[key]; dup {
				return nil, at, fmt.Errorf("cluster: snapshot has duplicate representative at cluster %d", i)
			}
			s.clusters = append(s.clusters, Cluster{
				Representative: rep,
				Members:        c.Members[:len(c.Members):len(c.Members)],
			})
			s.repByKey[key] = i
		}
		for _, stack := range st.Stacks {
			if key := keyOf(stack); !s.remembered(key) {
				s.remember(key, stack[:len(stack):len(stack)])
			}
		}
		sets[at] = s
	}
	return sets, 0, nil
}
