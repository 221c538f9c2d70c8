package explore

import (
	"hash/maphash"
	"sync/atomic"
	"unsafe"
)

// KeySet is an ordered set of scenario keys: an append-only list — what
// state export hands out, as a view, so a snapshot neither walks a map
// nor sorts a copy of the session's keys — under an open-addressing
// table of list indices. One set crosses the layers: the store builds a
// recovered journal's executed keys into it once, and the engine and the
// novelty filter read that same set; nobody adds to it any more, so they
// need no lock. The zero value is an empty set; a nil *KeySet reads as one.
type KeySet struct {
	list []string
	// tab holds list index + 1 per slot, 0 for empty, in a power of two
	// of slots at least twice len(list).
	tab []uint32
}

var (
	keySeed   = maphash.MakeSeed()
	keysBuilt atomic.Int64
)

// KeysBuilt reports how many keys NewKeySet has indexed in this process:
// the test hook that pins how often a resume builds its executed-key set.
func KeysBuilt() int64 { return keysBuilt.Load() }

// NewKeySet builds a set over keys in the order given, dropping repeats
// (only a hand-edited state holds any). It takes keys over without
// copying — spare capacity included, so the caller must not append to
// the slice afterwards.
func NewKeySet(keys []string) *KeySet {
	keysBuilt.Add(int64(len(keys)))
	s := &KeySet{list: keys}
	if !s.index() {
		s = &KeySet{}
		for _, k := range keys {
			s.Add(k)
		}
	}
	return s
}

// index rebuilds the table over the list at the smallest size that
// takes one more key; false when the list holds a repeat.
func (s *KeySet) index() bool {
	size := 8
	for size < 2*(len(s.list)+1) {
		size <<= 1
	}
	s.tab = make([]uint32, size)
	for i, k := range s.list {
		h, dup := s.slot(k)
		if dup {
			return false
		}
		s.tab[h] = uint32(i + 1)
	}
	return true
}

// slot finds k's table position: the one holding it, or the empty one
// it belongs in.
func (s *KeySet) slot(k string) (int, bool) {
	mask := len(s.tab) - 1
	for h := int(maphash.String(keySeed, k)) & mask; ; h = (h + 1) & mask {
		switch i := s.tab[h]; {
		case i == 0:
			return h, false
		case s.list[i-1] == k:
			return h, true
		}
	}
}

// Has reports whether k is in the set.
func (s *KeySet) Has(k string) bool {
	if s == nil || len(s.tab) == 0 {
		return false
	}
	_, ok := s.slot(k)
	return ok
}

// HasBytes is Has for a key still in the buffer it was rendered into;
// the string view of those bytes lives only for the probe.
func (s *KeySet) HasBytes(k []byte) bool {
	return s.Has(unsafe.String(unsafe.SliceData(k), len(k)))
}

// Add appends k unless the set holds it, and reports whether it was new.
func (s *KeySet) Add(k string) bool {
	if 2*(len(s.list)+1) > len(s.tab) {
		s.index()
	}
	h, dup := s.slot(k)
	if dup {
		return false
	}
	s.list = append(s.list, k)
	s.tab[h] = uint32(len(s.list))
	return true
}

// Len is the number of keys in the set.
func (s *KeySet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.list)
}

// Keys returns the keys in the order they entered. The elements are
// never written again and the capacity is clipped, so the caller may keep
// reading (or encoding, or appending to) the view while the set grows.
func (s *KeySet) Keys() []string {
	if s == nil {
		return nil
	}
	return s.list[:len(s.list):len(s.list)]
}

// Detach returns the keys in the order they entered with the list's
// spare capacity, for the one holder that goes on appending to its own
// copy of the header once the set is frozen (the engine, listing this
// run's keys behind the ones it resumed with). The set keeps none of the
// capacity, so it stays correct — an Add reallocates — whoever asks next.
func (s *KeySet) Detach() []string {
	if s == nil {
		return nil
	}
	keys := s.list
	s.list = keys[:len(keys):len(keys)]
	return keys
}
