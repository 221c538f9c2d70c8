package explore

import (
	"fmt"
	"reflect"
	"testing"
)

// TestKeySetAgainstMap drives a KeySet and a map + list reference through
// the same adds — from empty, across every table growth — and through
// bulk builds over prefixes of the same keys.
func TestKeySetAgainstMap(t *testing.T) {
	var s KeySet
	ref := map[string]bool{}
	var order []string
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("%d:%d,%d", i%3, (i*7919)%1700, i%11)
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
	if !reflect.DeepEqual(s.Keys(), order) {
		t.Fatal("Keys() is not the order of first adds")
	}
	for _, n := range []int{0, 1, 7, 8, 9, 1000, len(order)} {
		b := NewKeySet(append([]string(nil), order[:n]...))
		if b.Len() != n || (n > 0 && !reflect.DeepEqual(b.Keys(), order[:n:n])) {
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
// while the set grows; a nil set reads as empty.
func TestKeySetRepeatsAndViews(t *testing.T) {
	given := []string{"a", "b", "a", "c", "b"}
	s := NewKeySet(given)
	if !reflect.DeepEqual(s.Keys(), []string{"a", "b", "c"}) || !reflect.DeepEqual(given, []string{"a", "b", "a", "c", "b"}) {
		t.Fatalf("set %v built from %v", s.Keys(), given)
	}
	view := s.Keys()
	for i := 0; i < 100; i++ {
		s.Add(fmt.Sprint(i))
	}
	if !reflect.DeepEqual(view, []string{"a", "b", "c"}) || s.Len() != 103 {
		t.Fatalf("view %v after growing the set to %d", view, s.Len())
	}
	if grown := append(view, "z"); s.Keys()[3] != "0" || grown[3] != "z" {
		t.Fatal("appending to a view wrote into the set's list")
	}
	var none *KeySet
	if none.Has("a") || none.Len() != 0 || none.Keys() != nil {
		t.Fatal("a nil set is not an empty set")
	}
}

// TestKeySetDetach: the one holder that goes on listing keys behind a
// frozen set's gets the list with its room, and appends in place; the set
// keeps reading what it held, and anyone who asks later — or adds to the
// set after all — gets a copy instead of the same room.
func TestKeySetDetach(t *testing.T) {
	list := append(make([]string, 0, 8), "a", "b", "c")
	s := NewKeySet(list)
	own := s.Detach()
	if len(own) != 3 || cap(own) != 8 {
		t.Fatalf("detached list has len %d cap %d, want the 3 keys and the room of 8", len(own), cap(own))
	}
	own = append(own, "d")
	if &own[0] != &list[0] || s.Len() != 3 || s.Has("d") || !s.Has("c") {
		t.Fatalf("appending to the detached list moved it or changed the set (len %d)", s.Len())
	}
	if again := s.Detach(); cap(again) != 3 {
		t.Fatalf("a second detach has room for %d keys, want none to spare", cap(again)-len(again))
	}
	if !s.Add("e") || own[3] != "d" || !reflect.DeepEqual(s.Keys(), []string{"a", "b", "c", "e"}) {
		t.Fatalf("adding to the set after a detach: set %v, detached list %v", s.Keys(), own)
	}
	var none *KeySet
	if none.Detach() != nil {
		t.Fatal("a nil set detaches a list")
	}
}
