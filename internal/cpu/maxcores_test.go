package cpu

import (
	"strings"
	"testing"
)

// Machines beyond MaxCores exceed the affinity mask-set universe; every
// construction path must refuse them loudly instead of corrupting affinity
// state downstream. The panic names the shape it refused.
func TestMaxCoresGuards(t *testing.T) {
	mustPanic := func(name, shape string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: want panic on >%d cores", name, MaxCores)
				return
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "max 1024 supported") {
				t.Errorf("%s: panic %v does not explain the core limit", name, r)
			}
			if !strings.Contains(msg, shape) {
				t.Errorf("%s: panic %q does not name the shape %q", name, msg, shape)
			}
		}()
		f()
	}
	mustPanic("NewConfig", "config 520B520S has 1040 cores", func() { NewConfig(520, 520, true) })
	mustPanic("NewConfig little-first", "config 520B520S-lf has 1040 cores", func() { NewConfig(520, 520, false) })
	mustPanic("NewTieredConfig", "config 400B400M400S has 1200 cores", func() { NewTieredConfig(TriGearTiers(), []int{400, 400, 400}, true) })
	mustPanic("NewSymmetric", "config 1025big has 1025 cores", func() { NewSymmetric(Big, MaxCores+1) })
	mustPanic("NewSymmetricTier", "config 1025B-sym has 1025 cores", func() { NewSymmetricTier(TierBig, MaxCores+1) })

	// A hand-built oversized Config fails Validate with the same clarity.
	kinds := make([]Kind, MaxCores+1)
	cfg := Config{Name: "huge", Kinds: kinds}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "max 1024 supported") {
		t.Errorf("Validate on %d cores = %v, want core-limit error", len(kinds), err)
	}
}

// Shapes beyond the old 64-core uint64 ceiling now construct: the mask-set
// affinity representation lifted the limit to 1024.
func TestBeyond64CoresAccepted(t *testing.T) {
	cfg := NewTieredConfig(TriGearTiers(), []int{30, 30, 30}, true)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("90-core machine must validate: %v", err)
	}
	if cfg.NumCores() != 90 {
		t.Fatalf("cores = %d", cfg.NumCores())
	}
	for _, big := range []Config{Config32B32M64S, Config64B64S} {
		if err := big.Validate(); err != nil {
			t.Fatalf("palette %q must validate: %v", big.Name, err)
		}
		if big.NumCores() != 128 {
			t.Fatalf("palette %q has %d cores, want 128", big.Name, big.NumCores())
		}
	}
}

// The largest legal machine still constructs and validates: the guard must
// not off-by-one away real capacity.
func TestMaxCoresBoundaryAccepted(t *testing.T) {
	cfg := NewConfig(MaxCores/2, MaxCores/2, true)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%d-core machine must validate: %v", MaxCores, err)
	}
	if cfg.NumCores() != MaxCores {
		t.Fatalf("cores = %d", cfg.NumCores())
	}
}
