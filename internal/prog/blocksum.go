package prog

import "sync"

// mix is one block's term of a content sum (splitmix64's finaliser).
func mix(id int) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// closeSum finishes the sum of n distinct blocks whose terms add up to acc.
func closeSum(acc uint64, n int) uint64 {
	if n == 0 {
		return 0
	}
	return acc + mix(n|-1<<63)
}

// SumBlocks is the content sum of a coverage set: the wrapping sum of a
// 64-bit mix of each block id, closed with the block count — independent
// of order and a function of the set alone, equal wherever the same
// blocks were produced. The empty set sums to 0, which also stands for
// "not computed": either way a consumer walks Blocks.
func SumBlocks(blocks map[int]struct{}) uint64 {
	var acc uint64
	for b := range blocks {
		acc += mix(b)
	}
	return closeSum(acc, len(blocks))
}

// SumAscending is SumBlocks of the set a strictly ascending list holds;
// ok is false, and the sum 0, when the list is not strictly ascending.
func SumAscending(ids []int) (sum uint64, ok bool) {
	var acc uint64
	for i, b := range ids {
		if i > 0 && b <= ids[i-1] {
			return 0, false
		}
		acc += mix(b)
	}
	return closeSum(acc, len(ids)), true
}

// maxBlockSets bounds a BlockSets table; past it sets go out unshared.
const maxBlockSets = 1 << 14

// BlockSets interns materialised coverage sets by content sum, so a
// producer hands out one read-only map per recurring set, not one per
// run. The zero value is ready; safe for concurrent use.
type BlockSets struct {
	mu   sync.RWMutex
	sets map[uint64]map[int]struct{}
}

// Lookup returns the set interned under sum, or nil.
func (s *BlockSets) Lookup(sum uint64) map[int]struct{} {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sets[sum]
}

// Intern returns the set to hand out for blocks: the one interned under
// sum, else blocks itself, now interned unless sum is 0 or the table full.
func (s *BlockSets) Intern(sum uint64, blocks map[int]struct{}) map[int]struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.sets[sum]; ok {
		return m
	}
	if sum != 0 && len(s.sets) < maxBlockSets {
		if s.sets == nil {
			s.sets = make(map[uint64]map[int]struct{})
		}
		s.sets[sum] = blocks
	}
	return blocks
}
