package explore

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// arenaOf lists keys the way the store decodes them: an arena nobody has
// indexed yet.
func arenaOf(keys []string) *Keys {
	var a Keys
	a.push(keys...)
	k, err := NewKeys(a.buf, len(keys), 0)
	if err != nil {
		panic(err)
	}
	return k
}

func testKey(i int) string { return fmt.Sprintf("%d:%d,%d", i%3, (i*7919)%1700, i%11) }

// distinctKeys returns the first n distinct testKeys.
func distinctKeys(n int) []string {
	var out []string
	seen := map[string]bool{}
	for i := 0; len(out) < n; i++ {
		if k := testKey(i); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// TestKeySetAgainstMap drives a KeySet and a map + list reference through
// the same adds — from empty, across every table growth — and through
// bulk builds over prefixes of the same keys.
func TestKeySetAgainstMap(t *testing.T) {
	var s KeySet
	ref := map[string]bool{}
	var order []string
	for i := 0; i < 5000; i++ {
		k := testKey(i)
		if s.Add(k) == ref[k] {
			t.Fatalf("Add(%q) reported new=%v, the reference holds it: %v", k, !ref[k], ref[k])
		}
		if !ref[k] {
			ref[k] = true
			order = append(order, k)
		}
		if !s.Has(k) || s.Has(k+"x") || s.Len() != len(order) {
			t.Fatalf("after %q: Has=%v Has(other)=%v Len=%d, want true false %d", k, s.Has(k), s.Has(k+"x"), s.Len(), len(order))
		}
	}
	if !reflect.DeepEqual(s.Keys().Strings(), order) {
		t.Fatal("Keys() is not the order of first adds")
	}
	for _, n := range []int{0, 1, 7, 8, 9, 1000, len(order)} {
		b := NewKeySet(append([]string(nil), order[:n]...))
		if b.Len() != n || (n > 0 && !reflect.DeepEqual(b.Keys().Strings(), order[:n:n])) {
			t.Fatalf("bulk build over %d keys holds %d", n, b.Len())
		}
		for i, k := range order {
			if b.Has(k) != (i < n) {
				t.Fatalf("bulk build over %d keys: Has(order[%d]) = %v", n, i, b.Has(k))
			}
		}
		if n < len(order) && (!b.Add(order[n]) || b.Add(order[n]) || b.Len() != n+1) {
			t.Fatalf("bulk build over %d keys does not take one more", n)
		}
	}
}

// TestKeySetRepeatsAndViews: a list with repeats builds to its distinct
// keys without writing to the caller's slice; a view stays what it was
// while the set grows, and a set built over a view and added to leaves
// both the view and the set it came from alone; a nil set reads as empty.
func TestKeySetRepeatsAndViews(t *testing.T) {
	given := []string{"a", "b", "a", "c", "b"}
	s := NewKeySet(given)
	if !reflect.DeepEqual(s.Keys().Strings(), []string{"a", "b", "c"}) || !reflect.DeepEqual(given, []string{"a", "b", "a", "c", "b"}) {
		t.Fatalf("set %v built from %v", s.Keys().Strings(), given)
	}
	if again := arenaOf(given).Set(); !reflect.DeepEqual(again.Keys().Strings(), []string{"a", "b", "c"}) {
		t.Fatalf("set %v built over the list %v", again.Keys().Strings(), given)
	}
	view := s.Keys()
	for i := 0; i < 100; i++ {
		s.Add(fmt.Sprint(i))
	}
	if !reflect.DeepEqual(view.Strings(), []string{"a", "b", "c"}) || s.Len() != 103 {
		t.Fatalf("view %v after growing the set to %d", view.Strings(), s.Len())
	}
	if grown := view.Set(); !grown.Add("z") || s.Keys().At(3) != "0" || grown.Keys().At(3) != "z" || view.Len() != 3 {
		t.Fatal("adding to a set over a view wrote into the set's list")
	}
	var none *KeySet
	if none.Has("a") || none.Len() != 0 || none.Keys() != nil {
		t.Fatal("a nil set is not an empty set")
	}
	var nothing *Keys
	if nothing.Len() != 0 || nothing.Set().Len() != 0 || !nothing.Equal(&Keys{}) {
		t.Fatal("a nil list is not an empty list")
	}
}

// TestKeySetOnBaseAgainstMap drives sets that begin with a prefix of a
// frozen base against a map + list reference, across the boundary between
// what the base holds and what the set adds itself: following the base
// key by key, diverging from it, adding keys the base holds past the
// prefix (not in the set until added), repeats from both parts, and own
// growth through several tables — over a base built the store's way (a
// decoded arena extended and indexed once) and one grown add by add
// through its own table growths. The base is read, never written.
func TestKeySetOnBaseAgainstMap(t *testing.T) {
	all := distinctKeys(6000)
	baseKeys, fresh := all[:3000], all[3000:]
	extended, ok := arenaOf(baseKeys[:2000]).Extend(baseKeys[2000:])
	if !ok {
		t.Fatal("extending a decoded list with new keys reports a repeat")
	}
	grown := &KeySet{}
	for _, k := range baseKeys {
		grown.Add(k)
	}
	for name, base := range map[string]*KeySet{"extended": extended, "grown": grown} {
		for _, n := range []int{0, 1, 999, 2000, 3000} {
			for _, follow := range []int{0, 1, 250} {
				t.Run(fmt.Sprintf("%s/prefix=%d/follow=%d", name, n, follow), func(t *testing.T) {
					s := (&Keys{base: base, n: n}).Set()
					ref := map[string]bool{}
					var order []string
					for _, k := range baseKeys[:n] {
						ref[k] = true
						order = append(order, k)
					}
					add := func(k string) {
						t.Helper()
						if s.Add(k) == ref[k] {
							t.Fatalf("Add(%q) reported new=%v, the reference holds it: %v", k, !ref[k], ref[k])
						}
						if !ref[k] {
							ref[k] = true
							order = append(order, k)
						}
						if !s.Has(k) || s.Len() != len(order) {
							t.Fatalf("after %q: Has=%v Len=%d, want true %d", k, s.Has(k), s.Len(), len(order))
						}
					}
					next := min(n+follow, len(baseKeys))
					for _, k := range baseKeys[n:next] {
						add(k)
					}
					// Still following: a key the set holds is no new one,
					// and a base key past the next one diverges — the next
					// is then the set's own like any other.
					if len(order) > 0 {
						add(order[len(order)/2])
					}
					if next+1 < len(baseKeys) {
						add(baseKeys[next+1])
						add(baseKeys[next])
					}
					for i := 0; i < 2500; i++ {
						switch i % 5 {
						case 0, 1:
							add(fresh[i])
						case 2: // the base's, past the prefix
							add(baseKeys[(i*7)%len(baseKeys)])
						case 3: // already in, from either part
							add(order[(i*13)%len(order)])
						case 4:
							add(fresh[(i*3)%len(fresh)])
						}
					}
					for _, k := range all {
						if s.Has(k) != ref[k] || s.Has(k+"x") {
							t.Fatalf("Has(%q) = %v, the reference says %v", k, s.Has(k), ref[k])
						}
					}
					keys := s.Keys()
					if !reflect.DeepEqual(keys.Strings(), order) {
						t.Fatal("Keys() is not the prefix then the order of first adds")
					}
					raw, err := json.Marshal(keys)
					if want, _ := json.Marshal(order); err != nil || string(raw) != string(want) {
						t.Fatalf("Keys encode as %.80s… (%v), the list as %.80s…", raw, err, want)
					}
					var back Keys
					if err := json.Unmarshal(raw, &back); err != nil || !back.Equal(keys) || back.Set().Len() != len(order) {
						t.Fatalf("JSON round trip of %d keys reads back as %d (%v)", len(order), back.Len(), err)
					}
					if base.Len() != len(baseKeys) || !reflect.DeepEqual(base.Keys().Strings(), baseKeys) {
						t.Fatal("adding to a set on a base changed the base")
					}
				})
			}
		}
	}
}

// TestKeyArenaIndexedOnce: a decoded list is indexed by the first set
// built over it, once for every list that shares it; extending it takes
// the new keys into the same index, and an extension that repeats a key
// leaves the list as it was.
func TestKeyArenaIndexedOnce(t *testing.T) {
	keys := distinctKeys(500)
	list := arenaOf(keys[:400])
	before := KeysBuilt()
	a, b := list.Set(), list.Set()
	if built := KeysBuilt() - before; built != 400 || a.Len() != 400 || b.Len() != 400 {
		t.Fatalf("two sets over one decoded list indexed %d keys, want its 400 once", built)
	}
	if _, ok := list.Extend(keys[:1]); ok {
		t.Fatal("an indexed list took an extension repeating its first key")
	}
	fresh := arenaOf(keys[:400])
	if _, ok := fresh.Extend(append([]string{keys[450]}, keys[10])); ok || fresh.Len() != 400 {
		t.Fatalf("an extension repeating a key was taken; the list holds %d", fresh.Len())
	}
	before = KeysBuilt()
	set, ok := fresh.Extend(keys[400:])
	if built := KeysBuilt() - before; !ok || built != 500 || set.Len() != 500 {
		t.Fatalf("extension indexed %d keys into a set of %d (%v), want 500 once", built, set.Len(), ok)
	}
	history := fresh.Set()
	for _, k := range keys[400:] {
		if !history.Add(k) {
			t.Fatalf("a set over the list refuses %q, which its base holds past the prefix", k)
		}
	}
	if built := KeysBuilt() - before; built != 500 || history.Len() != 500 || !history.Keys().Equal(set.Keys()) {
		t.Fatalf("following the base through %d keys indexed %d", 100, built-500)
	}
}

// TestExtendNoList: a snapshot that lists no executed keys extends to a
// set of the tail's alone.
func TestExtendNoList(t *testing.T) {
	var none *Keys
	s, ok := none.Extend([]string{"a", "b"})
	if !ok || s.Len() != 2 || !s.Has("b") {
		t.Fatalf("extending no list: %v, %d keys", ok, s.Len())
	}
	if _, ok := none.Extend([]string{"a", "a"}); ok {
		t.Fatal("extending no list with a repeat was taken")
	}
}

// FuzzKeySet: any sequence of adds and probes, on an empty set or on one
// that begins with a prefix of a frozen base (an extended arena, as the
// store builds it), agrees with a map + list: membership, what each add
// reports, length, and the keys in order, through a JSON round trip. Op
// bytes pick keys from a small universe the base is a prefix of, so runs
// of adds follow the base, diverge from it and add keys it holds past the
// prefix; a set bit makes the op a probe.
func FuzzKeySet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 0x80, 9, 2}, uint8(0), uint8(0))
	f.Add([]byte{4, 5, 6, 40, 7, 0x85, 5, 41, 41, 0xa9}, uint8(20), uint8(4))
	f.Add([]byte("follow the base, then leave it"), uint8(63), uint8(63))
	universe := append([]string{""}, distinctKeys(60)...)
	universe = append(universe, strings.Repeat("x", 127), strings.Repeat("x", 128), strings.Repeat("y", 300))
	f.Fuzz(func(t *testing.T, ops []byte, baseLen, prefix uint8) {
		s, ref, order := &KeySet{}, map[string]bool{}, []string(nil)
		if nb := int(baseLen) % len(universe); nb > 0 {
			base, ok := arenaOf(universe[:nb/2]).Extend(universe[nb/2 : nb])
			if !ok {
				t.Fatal("a base of distinct keys does not build")
			}
			n := int(prefix) % (nb + 1)
			s = (&Keys{base: base, n: n}).Set()
			order = append(order, universe[:n]...)
			for _, k := range order {
				ref[k] = true
			}
		}
		for _, op := range ops {
			k := universe[int(op&0x7f)%len(universe)]
			if op&0x80 != 0 {
				if s.Has(k) != ref[k] {
					t.Fatalf("Has(%q) = %v, the reference says %v", k, s.Has(k), ref[k])
				}
				continue
			}
			if s.Add(k) == ref[k] {
				t.Fatalf("Add(%q) reported new=%v, the reference holds it: %v", k, !ref[k], ref[k])
			}
			if !ref[k] {
				ref[k] = true
				order = append(order, k)
			}
		}
		if s.Len() != len(order) || !reflect.DeepEqual(s.Keys().Strings(), append([]string{}, order...)) || !s.Keys().Equal(NewKeySet(order).Keys()) {
			t.Fatalf("set lists %q, the reference %q", s.Keys().Strings(), order)
		}
		raw, err := json.Marshal(s.Keys())
		var back Keys
		if err != nil || json.Unmarshal(raw, &back) != nil || !back.Equal(s.Keys()) {
			t.Fatalf("keys %q do not round-trip through JSON %s (%v)", order, raw, err)
		}
	})
}

// TestKeysEqual: lists compare by their keys in order, whichever base and
// own segment hold them: the same keys split between a base and an own
// segment at every position are equal to each other and to the list held
// whole, and lists that differ only in the key at the split are not.
func TestKeysEqual(t *testing.T) {
	keys := distinctKeys(6)
	base := arenaOf(keys[:5]).Set()
	atThree := &Keys{base: base, n: 3}
	atThree.push(keys[3], keys[5])
	atFour := &Keys{base: base, n: 4}
	atFour.push(keys[5])
	other := &Keys{base: base, n: 4}
	other.push(keys[4])
	own := NewKeySet([]string{keys[0], keys[1], keys[2], keys[3], keys[5]}).Keys()
	for _, c := range []struct {
		a, b *Keys
		want bool
	}{{atThree, atFour, true}, {atFour, own, true}, {atThree, own, true}, {atFour, other, false}, {atThree, other, false}, {nil, &Keys{}, true}, {nil, atFour, false}} {
		if c.a.Equal(c.b) != c.want || c.b.Equal(c.a) != c.want {
			t.Errorf("%q vs %q: Equal %v, want %v", c.a.Strings(), c.b.Strings(), c.a.Equal(c.b), c.want)
		}
	}
	list := append(distinctKeys(8), "", strings.Repeat("k", 300), "z")
	whole := arenaOf(list)
	split := func(keys []string, at int) *Keys {
		k := &Keys{base: arenaOf(keys[:at]).Set(), n: at}
		k.push(keys[at:]...)
		return k
	}
	for at := 0; at <= len(list); at++ {
		a := split(list, at)
		if !a.Equal(whole) || !whole.Equal(a) || !reflect.DeepEqual(a.Strings(), list) {
			t.Fatalf("split at %d: %q is not the list %q", at, a.Strings(), list)
		}
		for b := 0; b <= len(list); b++ {
			if !a.Equal(split(list, b)) {
				t.Fatalf("the list split at %d and at %d compare unequal", at, b)
			}
		}
		if at == len(list) {
			continue
		}
		for _, changed := range []string{list[at] + "x", strings.Repeat("k", 299), "y"} {
			diff := slices.Clone(list)
			diff[at] = changed
			if c := split(diff, at); c.Equal(a) || a.Equal(c) || c.Equal(whole) {
				t.Fatalf("lists differing at the split %d (%q for %q) compare equal", at, changed, list[at])
			}
		}
	}
}

// TestKeyRecordEdges: the empty key (a record of its length alone) and
// keys of 128 bytes and more (a length of two bytes) go through every
// path a key takes — a set's adds and probes, a decoded arena's index,
// an extension, an own segment's JSON — beside short ones.
func TestKeyRecordEdges(t *testing.T) {
	long := []string{strings.Repeat("a", 127), strings.Repeat("a", 128), strings.Repeat("b", 128), strings.Repeat("a", 20000)}
	keys := append([]string{"", "a", "0:1,2"}, long...)
	var s KeySet
	for i, k := range keys {
		if !s.Add(k) || s.Add(k) || !s.Has(k) || s.Keys().At(i) != k {
			t.Fatalf("key of %d bytes: not added once, found and read back", len(k))
		}
	}
	for _, k := range []string{"b", strings.Repeat("a", 129), strings.Repeat("a", 126), strings.Repeat("a", 20001)} {
		if s.Has(k) || s.HasBytes([]byte(k)) {
			t.Fatalf("a key of %d bytes nobody added is found", len(k))
		}
	}
	list := arenaOf(keys)
	if !list.Equal(s.Keys()) || !reflect.DeepEqual(list.Strings(), keys) {
		t.Fatalf("the decoded arena lists %d keys, not the set's %d", list.Len(), s.Len())
	}
	set, ok := list.Extend([]string{strings.Repeat("c", 300), "c"})
	if !ok || set.Len() != len(keys)+2 || !set.Has(strings.Repeat("c", 300)) || !set.Has("") {
		t.Fatalf("extension of the arena: %v, %d keys", ok, set.Len())
	}
	if _, ok := arenaOf(keys).Extend([]string{strings.Repeat("a", 128)}); ok {
		t.Fatal("an extension repeating a long key was taken")
	}
	raw, err := json.Marshal(s.Keys())
	var back Keys
	if err != nil || json.Unmarshal(raw, &back) != nil || !back.Equal(list) || back.Set().Len() != len(keys) {
		t.Fatalf("JSON round trip of the keys reads back as %d (%v)", back.Len(), err)
	}
}
