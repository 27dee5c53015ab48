package kernel

import "math/bits"

// coreSet is a fixed-size bitset over core (or run-queue) indices. The
// kernel keeps three of them live — the non-empty run queues, the occupied
// cores and the cores with a resched queued — so scheduling scans walk only
// the cores they need instead of every core.
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

// next returns the smallest index >= from of ((a OR b) XOR flip) AND
// filter, or -1. flip is 0 to walk the members of a or b (pass one set
// twice to walk its members) and ^0 to walk the indices in neither, such
// as the idle cores. filter (as long as a) bounds
// the walk, to one tier's cores or to the machine.
func next(a, b coreSet, flip uint64, filter coreSet, from int) int {
	w := from / 64
	if w >= len(a) {
		return -1
	}
	word := ((a[w] | b[w]) ^ flip) & filter[w] &^ (1<<uint(from%64) - 1)
	for word == 0 {
		w++
		if w == len(a) {
			return -1
		}
		word = ((a[w] | b[w]) ^ flip) & filter[w]
	}
	return w*64 + bits.TrailingZeros64(word)
}

// coreRing is a fixed-capacity FIFO of core IDs. The reschedule sweep
// queues kicked cores on one; the pending set admits each core at most
// once, so a ring of one slot per core never fills and never grows.
type coreRing struct {
	buf  []int32
	head int
	n    int
}

func newCoreRing(n int) coreRing { return coreRing{buf: make([]int32, n)} }

// push appends x; the ring must not be full.
func (r *coreRing) push(x int32) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = x
	r.n++
}

// at returns the i-th entry from the head.
func (r *coreRing) at(i int) int32 {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// pop removes and returns the oldest entry; the ring must be non-empty.
func (r *coreRing) pop() int32 {
	x := r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return x
}
