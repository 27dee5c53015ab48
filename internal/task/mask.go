package task

import (
	"math/bits"
	"strconv"

	"colab/internal/cpu"
)

// Mask is a set of allowed core indices — the affinity representation that
// replaced the original raw uint64 bitmap so machines larger than 64 cores
// can be simulated (cpu.MaxCores bounds the universe at 1024).
//
// Representation: a pointer to an immutable bitset over the whole universe;
// bit c%64 of word c/64 admits core c. The nil pointer (the zero Mask)
// admits no core, and MaskAll shares one package-level all-ones bitset.
//
// Mask behaves as a value: copying is one pointer, and no method ever
// writes a bitset a Mask points at — MaskOf, Set, Clear and Or build a
// fresh one — so copies never alias writable state. Allows, the scheduler
// hot path, is one bounds check and one indexed load.
type Mask struct{ w *maskWords }

// maskWords is the bitset of a non-nil Mask.
type maskWords [cpu.MaxCores / 64]uint64

var (
	// allWords is the one bitset every MaskAll shares.
	allWords = func() *maskWords {
		var w maskWords
		for i := range w {
			w[i] = ^uint64(0)
		}
		return &w
	}()
	noWords maskWords
)

// words returns the mask's bitset, the zero one for the nil mask. Callers
// only read it.
func (m Mask) words() *maskWords {
	if m.w == nil {
		return &noWords
	}
	return m.w
}

// MaskAll returns the mask admitting every core of any machine (the moral
// successor of the old AffinityAll constant).
func MaskAll() Mask { return Mask{allWords} }

// MaskOf builds an affinity mask admitting exactly the listed core indices.
// Out-of-range indices (negative, or >= cpu.MaxCores) are ignored.
func MaskOf(cores []int) Mask {
	w := new(maskWords)
	for _, c := range cores {
		if uint(c) < cpu.MaxCores {
			w[c/64] |= 1 << (uint(c) % 64)
		}
	}
	return Mask{w}
}

// IsEmpty reports whether the mask admits no core. The zero Mask is empty;
// the kernel treats an empty affinity as "unset" and defaults it to MaskAll
// at admission, exactly as it treated a zero uint64 mask.
func (m Mask) IsEmpty() bool { return m.w == nil || *m.w == noWords }

// Allows reports whether the mask admits core index c.
func (m Mask) Allows(c int) bool {
	return uint(c) < cpu.MaxCores && m.w != nil && m.w[c/64]&(1<<(uint(c)%64)) != 0
}

// Word returns word w of the mask, 0 <= w < cpu.MaxCores/64: bit i is set
// iff the mask admits core 64*w+i. Scans over core bitsets intersect it
// a word at a time instead of asking Allows per core.
func (m Mask) Word(w int) uint64 { return m.words()[w] }

// Set adds core index c to the mask. Out-of-range indices and cores the
// mask already admits leave it as it is.
func (m *Mask) Set(c int) {
	if uint(c) < cpu.MaxCores && !m.Allows(c) {
		w := *m.words()
		w[c/64] |= 1 << (uint(c) % 64)
		m.w = &w
	}
}

// Clear removes core index c from the mask. Out-of-range indices and cores
// the mask does not admit leave it as it is.
func (m *Mask) Clear(c int) {
	if m.Allows(c) {
		w := *m.w
		w[c/64] &^= 1 << (uint(c) % 64)
		m.w = &w
	}
}

// Or returns the union of m and o.
func (m Mask) Or(o Mask) Mask {
	a, b, out := m.words(), o.words(), new(maskWords)
	for i := range out {
		out[i] = a[i] | b[i]
	}
	return Mask{out}
}

// Equal reports whether m and o admit exactly the same cores: the same
// bitset, or equal words.
func (m Mask) Equal(o Mask) bool { return m.w == o.w || *m.words() == *o.words() }

// Iterate calls yield for every admitted core in ascending order, stopping
// early when yield returns false.
func (m Mask) Iterate(yield func(int) bool) {
	for i, word := range m.words() {
		for word != 0 {
			if !yield(i*64 + bits.TrailingZeros64(word)) {
				return
			}
			word &= word - 1
		}
	}
}

// String renders the mask for traces and errors.
func (m Mask) String() string {
	if m.Equal(MaskAll()) {
		return "all"
	}
	if m.IsEmpty() {
		return "none"
	}
	var b []byte
	m.Iterate(func(c int) bool {
		b = strconv.AppendInt(append(b, ','), int64(c), 10)
		return true
	})
	b[0] = '{'
	return string(append(b, '}'))
}
