package task

import (
	"fmt"
	"math/bits"
	"strings"

	"colab/internal/cpu"
)

// Mask is a set of allowed core indices — the affinity representation that
// replaced the original raw uint64 bitmap so machines larger than 64 cores
// can be simulated (cpu.MaxCores bounds the universe at 1024).
//
// Representation: cores 0..63 live in one inline word (the fast path every
// paper-sized machine stays on); cores 64 and above spill into extra words
// allocated only when a bit that high is actually set. The distinguished
// "all cores" value (MaskAll) is machine-size independent and admits every
// index below cpu.MaxCores.
//
// Mask behaves as a value: copying is cheap (one word plus a slice header)
// and safe — Set and Clear never mutate spilled words in place, they clone
// them first, so no two Mask values ever alias writable state. Allows, the
// scheduler hot path, performs no allocation and no copying of spilled
// words.
//
// Canonical form (maintained by every constructor and mutator, relied on by
// Equal): the all flag implies zero inline and spilled words; the spilled
// slice never ends in a zero word; and a mask whose bits cover the whole
// 0..cpu.MaxCores-1 universe is normalised to the all value.
type Mask struct {
	all bool
	lo  uint64   // cores 0..63
	hi  []uint64 // hi[w] covers cores 64*(w+1) .. 64*(w+1)+63
}

// maskWords is the number of 64-bit words covering the core universe.
const maskWords = cpu.MaxCores / 64

// MaskAll returns the mask admitting every core of any machine (the moral
// successor of the old AffinityAll constant).
func MaskAll() Mask { return Mask{all: true} }

// MaskOf builds an affinity mask admitting exactly the listed core indices.
// Out-of-range indices (negative, or >= cpu.MaxCores) are ignored.
func MaskOf(cores []int) Mask {
	var m Mask
	for _, c := range cores {
		m.Set(c)
	}
	return m
}

// IsEmpty reports whether the mask admits no core. The zero Mask is empty;
// the kernel treats an empty affinity as "unset" and defaults it to MaskAll
// at admission, exactly as it treated a zero uint64 mask.
func (m Mask) IsEmpty() bool { return !m.all && m.lo == 0 && len(m.hi) == 0 }

// Allows reports whether the mask admits core index c. This is the
// scheduler hot path: one branch and one shift for cores below 64, one
// bounds check and one indexed load above.
func (m Mask) Allows(c int) bool {
	if c < 0 {
		return false
	}
	if m.all {
		return c < cpu.MaxCores
	}
	if c < 64 {
		return m.lo&(1<<uint(c)) != 0
	}
	w := c/64 - 1
	if w >= len(m.hi) {
		return false
	}
	return m.hi[w]&(1<<uint(c%64)) != 0
}

// Set adds core index c to the mask. Out-of-range indices are ignored; the
// all mask already admits everything. Spilled words are cloned before
// modification so Mask copies never alias.
func (m *Mask) Set(c int) {
	if c < 0 || c >= cpu.MaxCores || m.all {
		return
	}
	if c < 64 {
		m.lo |= 1 << uint(c)
		m.normalize()
		return
	}
	w := c/64 - 1
	hi := make([]uint64, max(w+1, len(m.hi)))
	copy(hi, m.hi)
	hi[w] |= 1 << uint(c%64)
	m.hi = hi
	m.normalize()
}

// Clear removes core index c from the mask. Clearing from the all mask
// first materialises it over the full 0..cpu.MaxCores-1 universe (the only
// bound any machine can reach, enforced by cpu.Config.Validate). Spilled
// words are cloned before modification so Mask copies never alias.
func (m *Mask) Clear(c int) {
	if c < 0 || c >= cpu.MaxCores {
		return
	}
	if m.all {
		m.all = false
		m.lo = ^uint64(0)
		hi := make([]uint64, maskWords-1)
		for i := range hi {
			hi[i] = ^uint64(0)
		}
		m.hi = hi
	}
	if c < 64 {
		m.lo &^= 1 << uint(c)
		m.normalize()
		return
	}
	w := c/64 - 1
	if w >= len(m.hi) {
		return
	}
	hi := make([]uint64, len(m.hi))
	copy(hi, m.hi)
	hi[w] &^= 1 << uint(c%64)
	m.hi = hi
	m.normalize()
}

// And returns the intersection of m and o.
func (m Mask) And(o Mask) Mask {
	if m.all {
		return o
	}
	if o.all {
		return m
	}
	out := Mask{lo: m.lo & o.lo}
	n := min(len(m.hi), len(o.hi))
	if n > 0 {
		out.hi = make([]uint64, n)
		for i := 0; i < n; i++ {
			out.hi[i] = m.hi[i] & o.hi[i]
		}
	}
	out.normalize()
	return out
}

// Or returns the union of m and o.
func (m Mask) Or(o Mask) Mask {
	if m.all || o.all {
		return MaskAll()
	}
	out := Mask{lo: m.lo | o.lo}
	n := max(len(m.hi), len(o.hi))
	if n > 0 {
		out.hi = make([]uint64, n)
		copy(out.hi, m.hi)
		for i := range o.hi {
			out.hi[i] |= o.hi[i]
		}
	}
	out.normalize()
	return out
}

// Equal reports whether m and o admit exactly the same cores. Canonical
// form makes this a structural word compare.
func (m Mask) Equal(o Mask) bool {
	if m.all != o.all || m.lo != o.lo || len(m.hi) != len(o.hi) {
		return false
	}
	for i := range m.hi {
		if m.hi[i] != o.hi[i] {
			return false
		}
	}
	return true
}

// Iterate calls yield for every admitted core in ascending order, stopping
// early when yield returns false.
func (m Mask) Iterate(yield func(int) bool) {
	if m.all {
		for c := 0; c < cpu.MaxCores; c++ {
			if !yield(c) {
				return
			}
		}
		return
	}
	for w := 0; w <= len(m.hi); w++ {
		word := m.lo
		if w > 0 {
			word = m.hi[w-1]
		}
		base := w * 64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !yield(base + b) {
				return
			}
			word &^= 1 << uint(b)
		}
	}
}

// String renders the mask for traces and errors.
func (m Mask) String() string {
	if m.all {
		return "all"
	}
	if m.IsEmpty() {
		return "none"
	}
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	m.Iterate(func(c int) bool {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "%d", c)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

// normalize restores canonical form: no trailing zero spilled words, nil
// over empty, and the fully-populated universe collapsed to the all value.
func (m *Mask) normalize() {
	n := len(m.hi)
	for n > 0 && m.hi[n-1] == 0 {
		n--
	}
	if n == 0 {
		m.hi = nil
	} else {
		m.hi = m.hi[:n]
	}
	if m.lo == ^uint64(0) && len(m.hi) == maskWords-1 {
		for _, w := range m.hi {
			if w != ^uint64(0) {
				return
			}
		}
		*m = Mask{all: true}
	}
}
