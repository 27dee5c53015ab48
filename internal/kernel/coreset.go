package kernel

import "math/bits"

// coreSet is a fixed-size bitset over core (or run-queue) indices. The
// kernel keeps two of them live — the non-empty run queues and the occupied
// cores — so scheduling scans walk only the members instead of every core.
type coreSet []uint64

func newCoreSet(n int) coreSet { return make(coreSet, (n+63)/64) }

// coreSetOf returns the set holding exactly ids.
func coreSetOf(n int, ids []int) coreSet {
	s := newCoreSet(n)
	for _, i := range ids {
		s.add(i)
	}
	return s
}

func (s coreSet) add(i int)      { s[i/64] |= 1 << uint(i%64) }
func (s coreSet) remove(i int)   { s[i/64] &^= 1 << uint(i%64) }
func (s coreSet) has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }

// next returns the smallest index >= from of (s XOR flip) AND filter, or -1.
// flip is 0 to walk the members of s and ^0 to walk its complement; filter
// (as long as s) bounds the walk, to one tier's cores or to the machine.
func (s coreSet) next(from int, flip uint64, filter coreSet) int {
	w := from / 64
	if w >= len(s) {
		return -1
	}
	word := (s[w] ^ flip) & filter[w] &^ (1<<uint(from%64) - 1)
	for word == 0 {
		w++
		if w == len(s) {
			return -1
		}
		word = (s[w] ^ flip) & filter[w]
	}
	return w*64 + bits.TrailingZeros64(word)
}
