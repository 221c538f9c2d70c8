package explore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"
)

// KeySet is an ordered set of scenario keys, pointer-free: their records
// back to back in one byte arena, their end offsets, and an open-addressing
// table over them — no string header per key to write or to scan. A set
// may begin with the first n keys of a frozen base set, read through the
// base's table; it follows the base at no cost while the keys it adds are
// the base's next ones (a resumed explorer replaying the journal tail) and
// indexes only what it adds itself. So the store indexes a recovered
// session's executed keys once, and the novelty filter and every explorer
// history that repeats them read that set, without a lock: nobody adds to
// a base. The engine's fold-order list of executed keys follows it as a
// Keys with no index at all (After, Append), since nothing asks it whether
// it holds a key. The zero value is an empty set; a nil *KeySet reads as
// one.
type KeySet struct {
	keys Keys
	// tab holds own key index + 1 per slot, 0 for empty, in a power of two
	// of slots at least twice the own keys; nil before the own keys are
	// indexed.
	tab []uint32
}

// Keys is an ordered list of scenario keys as it crosses layers: the
// first n keys of a frozen base set, then an own segment of records back
// to back in buf, own record i ending at ends[i]. A record is a key's
// length as a uvarint, then its bytes, as in a snapshot's key frame, so a
// list is written, read and compared as bytes (Records). It is a view:
// nothing behind it is ever written again, so it may be read while the
// set it was taken from grows. JSON is an array of strings.
type Keys struct {
	base *KeySet
	n    int
	buf  []byte
	ends []uint32
}

var (
	keySeed   = maphash.MakeSeed()
	keysBuilt atomic.Int64
)

// KeysBuilt reports how many keys this process has entered into a table,
// built or regrown: the test hook that pins a resume's one index.
func KeysBuilt() int64 { return keysBuilt.Load() }

func keyHash(k string) uint64 { return maphash.String(keySeed, k) }

// NewKeys returns the n keys whose records are buf — handed over, never
// again written below len(buf) — noting their ends in one scan; nil for
// none. A record not as put writes it (its length of least width, with no
// closing zero byte) or a byte past the last is an error. The list is the
// base of a set nobody has indexed yet, which the first set built over it
// indexes for every list sharing it. Extend puts keys in the room past buf
// and in room more offsets.
func NewKeys(buf []byte, n, room int) (*Keys, error) {
	if uint(n) > uint(len(buf)) || uint64(len(buf)) > math.MaxUint32 {
		return nil, errors.New("malformed key list")
	}
	ends, at, ok := make([]uint32, 0, n+room), 0, true
	for ok && len(ends) < n {
		size, w := binary.Uvarint(buf[at:])
		ok = (w == 1 || w > 1 && buf[at+w-1] != 0) && size <= uint64(len(buf)-at-w)
		at += w + int(size)
		ends = append(ends, uint32(at))
	}
	switch {
	case !ok:
		return nil, errors.New("malformed key list")
	case at < len(buf):
		return nil, fmt.Errorf("%d bytes past the last key", len(buf)-at)
	case n == 0:
		return nil, nil
	}
	return &Keys{base: &KeySet{keys: Keys{buf: buf, ends: ends}}, n: n}, nil
}

// push appends keys to the own segment, its offsets grown at most once.
func (k *Keys) push(keys ...string) {
	k.ends = slices.Grow(k.ends, len(keys))
	for _, key := range keys {
		k.put(key)
	}
}

// put appends key's record to the own segment.
func (k *Keys) put(key string) {
	k.buf = append(binary.AppendUvarint(k.buf, uint64(len(key))), key...)
	k.ends = append(k.ends, uint32(len(k.buf)))
}

// Len is the number of keys.
func (k *Keys) Len() int {
	if k == nil {
		return 0
	}
	return k.n + len(k.ends)
}

// At returns key i, a view of the arena that holds it.
func (k *Keys) At(i int) string {
	if i < k.n {
		return k.base.keys.At(i)
	}
	return k.own(i - k.n)
}

// own returns own key i: its record past the length, which is one byte
// in a record of up to 128.
func (k *Keys) own(i int) string {
	start, w := uint32(0), 1
	if i > 0 {
		start = k.ends[i-1]
	}
	b := k.buf[start:k.ends[i]]
	if len(b) > 128 {
		_, w = binary.Uvarint(b)
	}
	return unsafe.String(unsafe.SliceData(b[w:]), len(b)-w)
}

// Strings returns the keys as views of their arenas, a header each.
func (k *Keys) Strings() []string {
	out := make([]string, k.Len())
	for i := range out {
		out[i] = k.At(i)
	}
	return out
}

// Records returns the keys' records as the pieces of storage that hold
// them, base first. Records delimit themselves: equal bytes, equal lists.
func (k *Keys) Records() [][]byte { return k.records(nil, k.Len()) }

// records appends the pieces holding the first m records.
func (k *Keys) records(dst [][]byte, m int) [][]byte {
	if m == 0 {
		return dst
	}
	if k.n > 0 {
		dst = k.base.keys.records(dst, min(m, k.n))
	}
	if m > k.n {
		dst = append(dst, k.buf[:k.ends[m-k.n-1]])
	}
	return dst
}

// Equal reports whether k and o list the same keys in the same order:
// the same count and record bytes, compared piece by piece.
func (k *Keys) Equal(o *Keys) bool {
	if k.Len() != o.Len() {
		return false
	}
	a, b := k.Records(), o.Records()
	for len(a) > 0 && len(b) > 0 {
		n := min(len(a[0]), len(b[0]))
		if !bytes.Equal(a[0][:n], b[0][:n]) {
			return false
		}
		if a[0], b[0] = a[0][n:], b[0][n:]; len(a[0]) == 0 {
			a = a[1:]
		}
		if len(b[0]) == 0 {
			b = b[1:]
		}
	}
	return len(a) == len(b)
}

// clip returns the view with its own segment clipped: appending copies.
func (k *Keys) clip() Keys {
	return Keys{base: k.base, n: k.n, buf: k.buf[:len(k.buf):len(k.buf)], ends: k.ends[:len(k.ends):len(k.ends)]}
}

// arena returns the base when k is all of an arena nobody has indexed.
func (k *Keys) arena() *KeySet {
	if k.Len() > 0 && len(k.ends) == 0 && k.base.keys.base == nil && k.base.tab == nil && k.n == len(k.base.keys.ends) {
		return k.base
	}
	return nil
}

// MarshalJSON renders the keys as an array of strings.
func (k *Keys) MarshalJSON() ([]byte, error) { return json.Marshal(k.Strings()) }

// UnmarshalJSON reads an array of strings into an own segment.
func (k *Keys) UnmarshalJSON(data []byte) error {
	var list []string
	err := json.Unmarshal(data, &list)
	*k = Keys{}
	k.push(list...)
	return err
}

// NewKeySet builds a set over keys in the order given, dropping repeats.
func NewKeySet(keys []string) *KeySet {
	s := &KeySet{}
	for _, k := range keys {
		s.Add(k)
	}
	return s
}

// Set returns a set to add to that begins with k's keys, in k's order
// (repeats dropped: only a hand-edited state holds any). It shares k's
// base — indexing it when nobody has, which is an arena's one build — and
// indexes k's own keys in a table of its own; adding never writes into k.
func (k *Keys) Set() *KeySet {
	if k.Len() == 0 {
		return &KeySet{}
	}
	s := &KeySet{keys: k.clip()}
	if b := s.keys.base; (s.keys.n > 0 && b.tab == nil && !b.index()) || !s.index() {
		return NewKeySet(k.Strings())
	}
	return s
}

// After returns an empty list past every key of base, which must never
// change again, for Append to grow.
func After(base *KeySet) *Keys { return &Keys{base: base, n: base.Len()} }

// Append adds key to the list's own segment. Nothing indexes it or checks
// that it is new: the list is for a holder whose keys are distinct already
// and who never asks whether it holds one.
func (k *Keys) Append(key string) { k.put(key) }

// View returns the list as it stands, a view the caller may keep reading
// (or encoding) while k grows; nil for an empty list.
func (k *Keys) View() *Keys {
	if k.Len() == 0 {
		return nil
	}
	v := k.clip()
	return &v
}

// Extend returns the set of k's keys followed by more, indexed once, or
// false when a key repeats. When k is all of an arena nobody has indexed —
// a list the store has just decoded — the set is that arena: it takes the
// new keys in its spare room, and every list that views it stays a prefix
// of the set. Anything else is copied into a set of its own.
func (k *Keys) Extend(more []string) (*KeySet, bool) {
	a := k.arena()
	if a == nil {
		a = &KeySet{}
		a.keys.push(k.Strings()...)
	}
	n, size := len(a.keys.ends), len(a.keys.buf)
	a.keys.push(more...)
	if !a.index() {
		a.keys.buf, a.keys.ends = a.keys.buf[:size], a.keys.ends[:n]
		return nil, false
	}
	return a, true
}

// index builds the table over the own keys at the smallest size that
// takes one more; false, and the table it had, when they hold a repeat.
func (s *KeySet) index() bool {
	size, old := 8, s.tab
	for size < 2*(len(s.keys.ends)+1) {
		size <<= 1
	}
	s.tab = make([]uint32, size)
	for i := range s.keys.ends {
		k := s.keys.own(i)
		at := s.slot(k, keyHash(k))
		if s.tab[at] != 0 {
			s.tab = old
			return false
		}
		s.tab[at] = uint32(i + 1)
	}
	keysBuilt.Add(int64(len(s.keys.ends)))
	return true
}

// find returns k's position in the set, or -1; h is keyHash(k).
func (s *KeySet) find(k string, h uint64) int {
	if s.keys.n > 0 {
		if i := s.keys.base.find(k, h); i >= 0 && i < s.keys.n {
			return i
		}
	}
	if i := s.slot(k, h); i >= 0 && s.tab[i] != 0 {
		return s.keys.n + int(s.tab[i]-1)
	}
	return -1
}

// slot finds k's position in the own table: the slot holding it, or the
// empty one it belongs in; -1 when there is no table.
func (s *KeySet) slot(k string, h uint64) int {
	if len(s.tab) == 0 {
		return -1
	}
	mask := uint64(len(s.tab) - 1)
	for h &= mask; ; h = (h + 1) & mask {
		if i := s.tab[h]; i == 0 || s.keys.own(int(i-1)) == k {
			return int(h)
		}
	}
}

// Has reports whether k is in the set.
func (s *KeySet) Has(k string) bool {
	return s.Len() > 0 && s.find(k, keyHash(k)) >= 0
}

// HasBytes is Has for a key still in the buffer it was rendered into;
// the string view of those bytes lives only for the probe.
func (s *KeySet) HasBytes(k []byte) bool {
	return s.Has(unsafe.String(unsafe.SliceData(k), len(k)))
}

// Add appends k unless the set holds it, and reports whether it was new.
func (s *KeySet) Add(k string) bool {
	ks := &s.keys
	if len(ks.ends) == 0 && ks.n < ks.base.Len() && ks.base.keys.At(ks.n) == k {
		ks.n++ // the base's next key: follow it
		return true
	}
	h := keyHash(k)
	if ks.n > 0 {
		if i := ks.base.find(k, h); i >= 0 && i < ks.n {
			return false
		}
	}
	if 2*(len(ks.ends)+1) > len(s.tab) {
		s.index()
	}
	at := s.slot(k, h)
	if s.tab[at] != 0 {
		return false
	}
	ks.put(k)
	s.tab[at] = uint32(len(ks.ends))
	return true
}

// Len is the number of keys in the set.
func (s *KeySet) Len() int {
	if s == nil {
		return 0
	}
	return s.keys.Len()
}

// Keys returns the keys in the order they entered, as a view (Keys.View).
func (s *KeySet) Keys() *Keys {
	if s == nil {
		return nil
	}
	return s.keys.View()
}
