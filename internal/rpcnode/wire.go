package rpcnode

// Wire compaction: covered-block sets travel
// as sorted varint deltas, not as a list of ids (block IDs cluster
// densely, so most deltas fit one byte), and injection stacks are
// interned per connection — a manager ships a stack's frames the first
// time it sees them and an 8-byte content hash thereafter (fault
// exploration revisits the same few injection sites constantly, so the
// dedup rate is high).
//
// The block encoding is canonical — ascending ids, minimal uvarints: one
// set, one encoding — and the coordinator relies on it: it interns decoded
// sets by the wire bytes themselves (Coordinator.coverage), which asks
// nothing of the manager. Bytes encodeBlocks would not write (a zero
// delta, a padded uvarint, a torn tail) decode to some set under their
// own key: a second entry, never a wrong answer.

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// maxInternedSets bounds each end's table of coverage sets; past it a
// set is encoded, or decoded, per result.
const maxInternedSets = 1 << 14

// encodeBlocks renders a covered-block set as sorted uvarint deltas.
// Nil/empty sets encode as nil.
func encodeBlocks(blocks map[int]struct{}) []byte {
	if len(blocks) == 0 {
		return nil
	}
	ids := make([]int, 0, len(blocks))
	for b := range blocks {
		ids = append(ids, b)
	}
	sort.Ints(ids)
	buf := make([]byte, 0, len(ids)+binary.MaxVarintLen64)
	prev := 0
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

// decodeBlocks is the inverse of encodeBlocks. Truncated input decodes
// to the blocks seen so far — the coordinator degrades to partial
// coverage rather than failing the whole batch.
func decodeBlocks(enc []byte) map[int]struct{} {
	if len(enc) == 0 {
		return nil
	}
	blocks := make(map[int]struct{})
	prev := uint64(0)
	for len(enc) > 0 {
		d, n := binary.Uvarint(enc)
		if n <= 0 {
			break
		}
		enc = enc[n:]
		prev += d
		blocks[int(prev)] = struct{}{}
	}
	return blocks
}

// stackHash content-addresses an injection stack (FNV-64a over the
// frames with a separator, so frame boundaries matter). Interning is
// content-hashed rather than per-connection-numbered so the
// coordinator can share one intern table across all managers: the same
// stack reported by two managers resolves to the same entry.
func stackHash(frames []string) uint64 {
	h := fnv.New64a()
	for _, f := range frames {
		h.Write([]byte(f))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
