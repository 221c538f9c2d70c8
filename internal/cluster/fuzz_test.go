package cluster

import "testing"

// FuzzSimilarity holds the frame-indexed similarity to the naive scan
// over stacks drawn from at most eight frames, so frames repeat within
// and across stacks. Each byte below 8 is a frame; 8 ends a stack that
// is added, 9 ends one that is asked about (and larger bytes are read
// modulo 10). Only the first 256 bytes are read and a stack keeps its
// first 16 frames, so the quadratic reference stays quick. A question
// is put to one set as MaxSimilarity and to another as a peek, resolved
// only at the next question, after the adds in between; both must equal
// the reference bit for bit.
func FuzzSimilarity(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 8, 0, 1, 9, 2, 2, 2, 8, 2, 9})
	f.Add([]byte{8, 9, 0, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 1, 9, 9})
	f.Add([]byte{3, 3, 3, 3, 8, 3, 3, 9, 3, 3, 3, 3, 3, 3, 8, 3, 9})
	frames := []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := &naiveSet{}
		asked, peeked := NewSet(1), NewSet(1)
		type peek struct {
			stack   []string
			sim     float64
			version int
		}
		var pending *peek
		var stack []string
		if len(data) > 256 {
			data = data[:256]
		}
		for _, b := range data {
			switch b %= 10; b {
			case 8:
				key := StackKey(stack)
				asked.AddKeyed(len(ref.all), stack, key)
				peeked.AddKeyed(len(ref.all), stack, key)
				ref.all = append(ref.all, stack)
			case 9:
				want := ref.maxSimilarity(stack)
				if got := asked.MaxSimilarity(stack); got != want {
					t.Fatalf("MaxSimilarity(%v) = %v, naive %v", stack, got, want)
				}
				if pending != nil {
					p := pending
					if got, want := peeked.ResolveSimilarity(p.stack, StackKey(p.stack), p.sim, p.version), ref.maxSimilarity(p.stack); got != want {
						t.Fatalf("Resolve(Peek@v%d)(%v) = %v, naive %v", p.version, p.stack, got, want)
					}
				}
				sim, ver := peeked.PeekSimilarity(stack, StackKey(stack))
				pending = &peek{stack, sim, ver}
			default:
				if len(stack) < 16 {
					stack = append(stack, frames[b])
				}
				continue
			}
			stack = nil
		}
	})
}
