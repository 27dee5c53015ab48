package task

import (
	"sort"
	"testing"

	"colab/internal/cpu"
)

// maskModel is the reference model FuzzMaskEquivalence drives Mask against:
// a plain map of admitted cores (exact for any universe size), with a
// redundant uint64 shadow checked whenever the set stays below core 64 —
// the representation the Mask type replaced.
type maskModel struct {
	set map[int]bool
	lo  uint64
}

func newModel() *maskModel { return &maskModel{set: make(map[int]bool)} }

func (m *maskModel) setCore(c int) {
	if c < 0 || c >= cpu.MaxCores {
		return
	}
	m.set[c] = true
	if c < 64 {
		m.lo |= 1 << uint(c)
	}
}

func (m *maskModel) clearCore(c int) {
	if c < 0 || c >= cpu.MaxCores {
		return
	}
	delete(m.set, c)
	if c < 64 {
		m.lo &^= 1 << uint(c)
	}
}

func (m *maskModel) cores() []int {
	out := make([]int, 0, len(m.set))
	for c := range m.set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func (m *maskModel) low() bool {
	for c := range m.set {
		if c >= 64 {
			return false
		}
	}
	return true
}

// checkAgainstModel asserts full observable equivalence of mask and model.
func checkAgainstModel(t *testing.T, mask Mask, model *maskModel) {
	t.Helper()
	cores := model.cores()
	if got := maskCores(mask); !equalInts(got, cores) {
		t.Fatalf("Cores = %v, want %v", got, cores)
	}
	probes := append([]int{-1, 0, 1, 63, 64, 65, 127, 128, cpu.MaxCores - 1, cpu.MaxCores}, cores...)
	for _, c := range probes {
		want := c >= 0 && c < cpu.MaxCores && model.set[c]
		if got := mask.Allows(c); got != want {
			t.Fatalf("Allows(%d) = %v, want %v", c, got, want)
		}
	}
	if model.low() {
		// On the ≤64-core subset the uint64 shadow must agree bit for bit.
		var lo uint64
		mask.Iterate(func(c int) bool {
			if c < 64 {
				lo |= 1 << uint(c)
			}
			return true
		})
		if lo != model.lo {
			t.Fatalf("low-word divergence: %#x, want %#x", lo, model.lo)
		}
	}
	// Canonical-form round-trip: rebuilding from the admitted cores must
	// yield a structurally Equal mask.
	if rebuilt := MaskOf(maskCores(mask)); !mask.Equal(MaskAll()) && !rebuilt.Equal(mask) {
		t.Fatalf("canonical round-trip broke: %v != %v", rebuilt, mask)
	}
	if mask.IsEmpty() != (len(model.set) == 0) {
		t.Fatalf("IsEmpty = %v with %d cores", mask.IsEmpty(), len(model.set))
	}
}

// maskCores returns the admitted core indices in ascending order.
func maskCores(m Mask) []int {
	var out []int
	m.Iterate(func(c int) bool {
		out = append(out, c)
		return true
	})
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzMaskEquivalence drives Set/Clear/Allows/And/Or/Count/Iterate against
// the reference model. The op stream decodes two operations per byte:
// the low 7 bits select a core (scaled across the universe), the top bit
// picks Set vs Clear; every 16th step cross-checks And/Or against a second
// mask built from the stream's reverse.
func FuzzMaskEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x3f, 0x40, 0x41, 0x7f, 0x80, 0xbf, 0xc0, 0xff})
	f.Add([]byte{0x3e, 0x3f, 0x40, 0xbe, 0xbf, 0xc0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		var mask Mask
		model := newModel()
		for i, op := range ops {
			// Spread the 7-bit operand over word boundaries: cores 0..95
			// map directly, higher values jump in 64-core strides so the
			// spilled words past 128 get exercised too.
			c := int(op & 0x7f)
			if c > 95 {
				c = 96 + (c-96)*64
			}
			if op&0x80 == 0 {
				mask.Set(c)
				model.setCore(c)
			} else {
				mask.Clear(c)
				model.clearCore(c)
			}
			if i%16 == 15 {
				checkAgainstModel(t, mask, model)
			}
		}
		checkAgainstModel(t, mask, model)

		// And/Or against a second mask from the reversed stream.
		var other Mask
		otherModel := newModel()
		for i := len(ops) - 1; i >= 0; i-- {
			c := int(ops[i] & 0x7f)
			if c > 95 {
				c = 96 + (c-96)*64
			}
			other.Set(c)
			otherModel.setCore(c)
		}
		and, or := mask.And(other), mask.Or(other)
		andModel, orModel := newModel(), newModel()
		for c := range model.set {
			orModel.setCore(c)
			if otherModel.set[c] {
				andModel.setCore(c)
			}
		}
		for c := range otherModel.set {
			orModel.setCore(c)
		}
		checkAgainstModel(t, and, andModel)
		checkAgainstModel(t, or, orModel)
	})
}

// Word-boundary edge cases: the first word ends at 63, the second covers
// 64..127, the third begins at 128, and the last covers 960..1023.
func TestMaskWordBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cores []int
	}{
		{"end-of-inline", []int{63}},
		{"first-spilled", []int{64}},
		{"straddle", []int{63, 64, 65}},
		{"end-of-first-spill", []int{127}},
		{"second-spill", []int{127, 128}},
		{"sparse-high", []int{0, 512, cpu.MaxCores - 1}},
		{"last-word", []int{959, 960, cpu.MaxCores - 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MaskOf(tc.cores)
			if got := maskCores(m); !equalInts(got, tc.cores) {
				t.Fatalf("Cores = %v, want %v", got, tc.cores)
			}
			for _, c := range tc.cores {
				neighbors := []int{c - 1, c, c + 1}
				for _, p := range neighbors {
					want := false
					for _, x := range tc.cores {
						if x == p {
							want = true
						}
					}
					if p < 0 || p >= cpu.MaxCores {
						want = false
					}
					if m.Allows(p) != want {
						t.Fatalf("Allows(%d) = %v, want %v", p, m.Allows(p), want)
					}
				}
			}
			// Clearing every core must land back on the canonical empty mask.
			for _, c := range tc.cores {
				m.Clear(c)
			}
			if !m.IsEmpty() || !m.Equal(Mask{}) {
				t.Fatalf("clear-all left non-canonical mask %v", m)
			}
		})
	}
}

// The all mask is machine-size independent and survives a Set unchanged;
// clearing from it materialises the full universe minus that core.
func TestMaskAllSemantics(t *testing.T) {
	m := MaskAll()
	m.Set(5)
	if !m.Equal(MaskAll()) {
		t.Fatalf("Set on all must stay all")
	}
	m.Clear(64)
	if m.Equal(MaskAll()) || len(maskCores(m)) != cpu.MaxCores-1 || m.Allows(64) {
		t.Fatalf("Clear(64) on all: count=%d allows=%v", len(maskCores(m)), m.Allows(64))
	}
	m.Set(64)
	if !m.Equal(MaskAll()) {
		t.Fatalf("re-setting the cleared core must normalise back to all, got %v cores", len(maskCores(m)))
	}
}

// Value semantics: mutating a copy never changes the original, nor the
// bitset every MaskAll shares.
func TestMaskCopiesDoNotAlias(t *testing.T) {
	a := MaskOf([]int{10, 100})
	b := a
	b.Set(200)
	b.Clear(100)
	if !a.Allows(100) || a.Allows(200) {
		t.Fatalf("mutating a copy leaked into the original: %v", a)
	}
	if len(maskCores(a)) != 2 || len(maskCores(b)) != 2 {
		t.Fatalf("counts: a=%d b=%d", len(maskCores(a)), len(maskCores(b)))
	}
	all := MaskAll()
	c := all
	c.Clear(0)
	c.Clear(cpu.MaxCores - 1)
	if len(maskCores(all)) != cpu.MaxCores || len(maskCores(MaskAll())) != cpu.MaxCores {
		t.Fatalf("clearing a copy of MaskAll changed the shared mask")
	}
}

// MaskOf builds its bitset with one allocation however many cores it
// lists, those above 63 included.
func TestMaskOfAllocatesOnce(t *testing.T) {
	cores := make([]int, 128)
	for i := range cores {
		cores[i] = 64 + i*7
	}
	if n := testing.AllocsPerRun(100, func() { _ = MaskOf(cores) }); n > 1 {
		t.Fatalf("MaskOf of %d cores above 63: %v allocs, want at most 1", len(cores), n)
	}
}

func TestMaskString(t *testing.T) {
	if got := MaskAll().String(); got != "all" {
		t.Fatalf("all = %q", got)
	}
	if got := (Mask{}).String(); got != "none" {
		t.Fatalf("empty = %q", got)
	}
	if got := MaskOf([]int{2, 0, 65}).String(); got != "{0,2,65}" {
		t.Fatalf("set = %q", got)
	}
}
