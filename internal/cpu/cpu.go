// Package cpu models the asymmetric multicore hardware the paper simulates
// with gem5: single-ISA processors whose cores belong to an ordered set of
// *tiers* — core types of increasing microarchitectural capability, each
// with its own clock and DVFS ladder. The paper's ARM big.LITTLE platform
// (out-of-order Cortex-A57-like "big" cores at 2 GHz, in-order
// Cortex-A53-like "little" cores at 1.2 GHz) is the two-tier instance;
// modern AMPs (ARM DynamIQ tri-gear, Apple P/E designs) add middle tiers,
// modelled here by interpolating between the in-order and out-of-order
// anchors.
//
// The model is timing-level, not cycle-level. Each thread carries a hidden
// WorkProfile describing its microarchitectural character (ILP, branchiness,
// memory intensity, ...). The profile determines (a) the thread's true
// per-tier speedup — how much faster each tier retires its work relative to
// the base tier — and (b) the synthetic hardware performance counters the
// schedulers observe. Schedulers never see the profile or the true speedup;
// they must infer it from counters through the trained model, exactly as on
// real hardware.
package cpu

import (
	"fmt"
	"sort"

	"colab/internal/topo"
)

// Kind is a per-core tier index into a Config's tier set. In the default
// two-tier palette index 0 is the little tier and index 1 the big tier; the
// Little/Big constants name exactly those indices.
type Kind int

const (
	// Little is the base tier of the default palette: an in-order,
	// low-power core (Cortex-A53-like).
	Little Kind = iota
	// Big is the top tier of the default palette: an out-of-order,
	// high-performance core (Cortex-A57-like).
	Big
)

// String returns "big" or "little" for the default palette indices and
// "tierN" otherwise (multi-tier configs name cores through their Tier).
func (k Kind) String() string {
	switch k {
	case Big:
		return "big"
	case Little:
		return "little"
	default:
		return fmt.Sprintf("tier%d", int(k))
	}
}

// RefFreqMHz is the base-tier reference clock (Cortex-A53-like, 1.2 GHz).
// Work units are calibrated against it: one work unit is one nanosecond of
// execution on an in-order core at this frequency.
const RefFreqMHz = 1200

// Tier describes one core type of an asymmetric machine.
//
// Uarch places the tier's pipeline between the two calibrated anchors:
// 0 is the in-order base core, 1 the full out-of-order big core, and
// intermediate values interpolate the microarchitectural benefit (a
// DynamIQ-style "medium" core sits near 0.5). MinSpeedup/MaxSpeedup bound
// the tier's work-rate relative to the base tier, mirroring the physical
// envelope big.LITTLE studies report for the anchor cores.
//
// OPPsMHz is the tier's DVFS frequency ladder in ascending order; the last
// entry must equal FreqMHz (the nominal operating point). A nil or
// single-entry ladder means the tier runs fixed-frequency, which is how the
// paper's gem5 configuration behaves. Per-OPP power states are derived in
// power.go (dynamic power scales with the cube of the frequency ratio).
type Tier struct {
	Name   string // tier name: "big", "medium", "little", ...
	Symbol string // one-letter symbol used in config names: "B", "M", "S"
	Model  string // core model the tier mimics, e.g. "cortexa57"

	FreqMHz int     // nominal (maximum) clock
	Uarch   float64 // out-of-order strength in [0, 1]
	// Capacity is the tier's nominal work-rate relative to the base tier
	// for a balanced workload; tiers of a config must be listed in
	// ascending capacity.
	Capacity float64
	// MinSpeedup and MaxSpeedup clamp the per-profile speedup vs base.
	MinSpeedup, MaxSpeedup float64
	// L1I, L1D and L2 sizes in KiB; informational (they shape the counter
	// model constants) and reported by tooling.
	L1IKB, L1DKB, L2KB int
	// OPPsMHz is the ascending DVFS ladder; nil means fixed at FreqMHz.
	OPPsMHz []int
}

// Ladder returns the tier's operating points, substituting the fixed
// nominal frequency for a nil ladder.
func (t Tier) Ladder() []int {
	if len(t.OPPsMHz) == 0 {
		return []int{t.FreqMHz}
	}
	return t.OPPsMHz
}

// Validate reports structural problems with the tier definition.
func (t Tier) Validate() error {
	if t.FreqMHz <= 0 {
		return fmt.Errorf("cpu: tier %q has non-positive frequency %d", t.Name, t.FreqMHz)
	}
	if t.Uarch < 0 || t.Uarch > 1 {
		return fmt.Errorf("cpu: tier %q Uarch %.2f outside [0,1]", t.Name, t.Uarch)
	}
	if t.Capacity <= 0 {
		return fmt.Errorf("cpu: tier %q has non-positive capacity", t.Name)
	}
	ladder := t.Ladder()
	for i, f := range ladder {
		if f <= 0 {
			return fmt.Errorf("cpu: tier %q OPP %d has non-positive frequency", t.Name, i)
		}
		if i > 0 && f <= ladder[i-1] {
			return fmt.Errorf("cpu: tier %q ladder not strictly ascending at OPP %d", t.Name, i)
		}
	}
	if ladder[len(ladder)-1] != t.FreqMHz {
		return fmt.Errorf("cpu: tier %q ladder top %d != nominal %d MHz", t.Name, ladder[len(ladder)-1], t.FreqMHz)
	}
	return nil
}

// The calibrated anchor tiers, mirroring the paper's gem5 configuration
// (§5.1). Fixed-frequency, as in the paper.
var (
	// TierLittle is the in-order base tier (Cortex-A53-like, 1.2 GHz).
	TierLittle = Tier{
		Name: "little", Symbol: "S", Model: "cortexa53",
		FreqMHz: 1200, Uarch: 0, Capacity: 1.0,
		MinSpeedup: 1.0, MaxSpeedup: 1.0,
		L1IKB: 32, L1DKB: 32, L2KB: 512,
	}
	// TierBig is the out-of-order top tier (Cortex-A57-like, 2 GHz).
	TierBig = Tier{
		Name: "big", Symbol: "B", Model: "cortexa57",
		FreqMHz: 2000, Uarch: 1, Capacity: 2.0,
		MinSpeedup: 1.05, MaxSpeedup: 2.85,
		L1IKB: 48, L1DKB: 32, L2KB: 2048,
	}
	// TierMedium is a DynamIQ-style middle tier (Cortex-A72-like,
	// 1.6 GHz, moderately out-of-order) with a three-point DVFS ladder.
	TierMedium = Tier{
		Name: "medium", Symbol: "M", Model: "cortexa72",
		FreqMHz: 1600, Uarch: 0.5, Capacity: 1.5,
		MinSpeedup: 1.02, MaxSpeedup: 1.95,
		L1IKB: 48, L1DKB: 32, L2KB: 1024,
		OPPsMHz: []int{1000, 1300, 1600},
	}
	// TierBigDVFS and TierLittleDVFS are the anchor tiers with realistic
	// frequency ladders enabled, for DVFS experiments. Their nominal
	// points match TierBig/TierLittle exactly.
	TierBigDVFS = Tier{
		Name: "big", Symbol: "B", Model: "cortexa57",
		FreqMHz: 2000, Uarch: 1, Capacity: 2.0,
		MinSpeedup: 1.05, MaxSpeedup: 2.85,
		L1IKB: 48, L1DKB: 32, L2KB: 2048,
		OPPsMHz: []int{1200, 1600, 2000},
	}
	TierLittleDVFS = Tier{
		Name: "little", Symbol: "S", Model: "cortexa53",
		FreqMHz: 1200, Uarch: 0, Capacity: 1.0,
		MinSpeedup: 1.0, MaxSpeedup: 1.0,
		L1IKB: 32, L1DKB: 32, L2KB: 512,
		OPPsMHz: []int{600, 900, 1200},
	}
)

// DefaultTiers is the paper's two-tier big.LITTLE palette in ascending
// capacity order. Configs with a nil tier set use it; tier index 0 is
// Little and tier index 1 is Big, matching the Kind constants.
func DefaultTiers() []Tier { return []Tier{TierLittle, TierBig} }

// TriGearTiers is the three-tier DynamIQ-style palette in ascending
// capacity order, with DVFS ladders on every tier.
func TriGearTiers() []Tier { return []Tier{TierLittleDVFS, TierMedium, TierBigDVFS} }

// Spec describes one core instance (a flattened view of its tier).
type Spec struct {
	Kind    Kind
	Name    string
	FreqMHz int
	// L1I, L1D and L2 sizes in KiB; informational (they shape the counter
	// model constants) and reported by tooling.
	L1IKB, L1DKB, L2KB int
}

// Standard core specs mirroring the paper's gem5 configuration (§5.1).
var (
	BigSpec    = Spec{Kind: Big, Name: "cortexa57", FreqMHz: 2000, L1IKB: 48, L1DKB: 32, L2KB: 2048}
	LittleSpec = Spec{Kind: Little, Name: "cortexa53", FreqMHz: 1200, L1IKB: 32, L1DKB: 32, L2KB: 512}
)

// FreqRatio is the big/little clock ratio (2.0 GHz / 1.2 GHz).
const FreqRatio = 2000.0 / 1200.0

// MaxCores is the largest supported machine. Thread affinity is a
// task.Mask set (inline fast path below 64 cores, spilled words above), so
// the bound is no longer a representation limit — it is a sanity guard
// sized for the largest server palettes worth simulating, and it fixes the
// universe the mask set's "all cores" value covers. Config.Validate and
// the config constructors enforce it.
const MaxCores = 1024

// checkCoreCount guards the constructors against out-of-universe sizes
// with a clear error instead of corrupt affinity state downstream.
func checkCoreCount(n int, what string) {
	if n > MaxCores {
		panic(fmt.Sprintf("cpu: %s has %d cores; max %d supported", what, n, MaxCores))
	}
}

// Config is a machine configuration: an ordered list of core tier indices
// over a tier set. Order matters — the paper averages each experiment over
// two simulations with big-cores-first and little-cores-first orderings,
// because initial placement follows core order.
type Config struct {
	Name string
	// Kinds holds one tier index per core, in core order.
	Kinds []Kind
	// TierSet is the ascending-capacity tier palette Kinds index into.
	// nil selects DefaultTiers (the paper's big.LITTLE pair).
	TierSet []Tier
	// Topo is the machine's socket/LLC-domain layout. The zero value is
	// the flat (single-domain) machine, which behaves — and fingerprints —
	// exactly like the pre-topology model.
	Topo topo.Topology
}

// Topology returns the config's socket/LLC-domain layout (flat when unset).
func (c Config) Topology() topo.Topology { return c.Topo }

// WithTopology returns c with the topology attached. Validate checks the
// layout against the core count.
func (c Config) WithTopology(t topo.Topology) Config {
	c.Topo = t
	return c
}

// WithMigrationCost returns c with its topology's per-hop migration
// penalty replaced (cycles = 0 makes the machine schedule bit-identically
// to its flat equivalent).
func (c Config) WithMigrationCost(cycles float64) Config {
	t := c.Topo
	t.PenaltyCycles = cycles
	c.Topo = t
	return c
}

// Flat returns c with its topology stripped: the equivalent single-domain
// machine with an identical core layout.
func (c Config) Flat() Config {
	c.Topo = topo.Topology{}
	return c
}

// Tiers returns the config's tier palette (DefaultTiers when unset).
func (c Config) Tiers() []Tier {
	if c.TierSet == nil {
		return DefaultTiers()
	}
	return c.TierSet
}

// NumTiers returns the size of the tier palette.
func (c Config) NumTiers() int { return len(c.Tiers()) }

// Tier returns the tier of core index i.
func (c Config) Tier(i int) Tier { return c.Tiers()[c.Kinds[i]] }

// Validate reports structural problems with the configuration.
func (c Config) Validate() error {
	tiers := c.Tiers()
	if len(tiers) == 0 {
		return fmt.Errorf("cpu: config %q has no tiers", c.Name)
	}
	if n := len(c.Kinds); n > MaxCores {
		return fmt.Errorf("cpu: config %q has %d cores; max %d supported", c.Name, n, MaxCores)
	}
	for i, t := range tiers {
		if err := t.Validate(); err != nil {
			return err
		}
		if i > 0 && t.Capacity < tiers[i-1].Capacity {
			return fmt.Errorf("cpu: config %q tiers not in ascending capacity order at %q", c.Name, t.Name)
		}
	}
	for i, k := range c.Kinds {
		if int(k) < 0 || int(k) >= len(tiers) {
			return fmt.Errorf("cpu: config %q core %d has tier index %d outside palette of %d", c.Name, i, k, len(tiers))
		}
	}
	if err := c.Topo.Validate(len(c.Kinds)); err != nil {
		return fmt.Errorf("cpu: config %q: %w", c.Name, err)
	}
	return nil
}

// NewConfig builds a two-tier configuration with nBig big cores and nLittle
// little cores. bigFirst selects the core ordering.
func NewConfig(nBig, nLittle int, bigFirst bool) Config {
	checkCoreCount(nBig+nLittle, fmt.Sprintf("config %dB%dS", nBig, nLittle))
	name := fmt.Sprintf("%dB%dS", nBig, nLittle)
	kinds := make([]Kind, 0, nBig+nLittle)
	if bigFirst {
		for i := 0; i < nBig; i++ {
			kinds = append(kinds, Big)
		}
		for i := 0; i < nLittle; i++ {
			kinds = append(kinds, Little)
		}
	} else {
		for i := 0; i < nLittle; i++ {
			kinds = append(kinds, Little)
		}
		for i := 0; i < nBig; i++ {
			kinds = append(kinds, Big)
		}
		name += "-lf" // little-first ordering
	}
	return Config{Name: name, Kinds: kinds}
}

// NewTieredConfig builds a machine over an arbitrary ascending-capacity
// tier palette. counts[i] is the number of cores of tiers[i]. bigFirst lays
// the tier blocks out in descending capacity order (the default evaluated
// ordering); the little-first variant reverses the blocks and gets a "-lf"
// name suffix. The name concatenates per-tier counts and symbols from the
// top tier down, e.g. "2B2M2S".
func NewTieredConfig(tiers []Tier, counts []int, bigFirst bool) Config {
	if len(tiers) != len(counts) {
		panic(fmt.Sprintf("cpu: NewTieredConfig got %d tiers but %d counts", len(tiers), len(counts)))
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	checkCoreCount(total, "NewTieredConfig palette")
	name := ""
	for i := len(tiers) - 1; i >= 0; i-- {
		sym := tiers[i].Symbol
		if sym == "" {
			sym = "?"
		}
		name += fmt.Sprintf("%d%s", counts[i], sym)
	}
	var kinds []Kind
	appendTier := func(i int) {
		for n := 0; n < counts[i]; n++ {
			kinds = append(kinds, Kind(i))
		}
	}
	if bigFirst {
		for i := len(tiers) - 1; i >= 0; i-- {
			appendTier(i)
		}
	} else {
		for i := 0; i < len(tiers); i++ {
			appendTier(i)
		}
		name += "-lf"
	}
	return Config{Name: name, Kinds: kinds, TierSet: tiers}
}

// NewNUMAConfig builds a multi-socket machine: every socket carries the
// same per-socket tier palette (countsPerSocket[i] cores of tiers[i], tier
// blocks in descending capacity order when bigFirst), its cores split
// contiguously into domainsPerSocket shared-LLC domains, and migrations pay
// penaltyCycles destination-core cycles per distance hop. The name prefixes
// the per-socket shape with the socket count, e.g. "2x32B32M64S".
func NewNUMAConfig(sockets, domainsPerSocket int, tiers []Tier, countsPerSocket []int, penaltyCycles float64, bigFirst bool) Config {
	if sockets < 1 || domainsPerSocket < 1 {
		panic(fmt.Sprintf("cpu: NewNUMAConfig needs positive shape, got %d sockets × %d domains", sockets, domainsPerSocket))
	}
	socket := NewTieredConfig(tiers, countsPerSocket, bigFirst)
	perSocket := len(socket.Kinds)
	if perSocket%domainsPerSocket != 0 {
		panic(fmt.Sprintf("cpu: NewNUMAConfig socket of %d cores does not split into %d LLC domains", perSocket, domainsPerSocket))
	}
	name := fmt.Sprintf("%dx%s", sockets, socket.Name)
	checkCoreCount(sockets*perSocket, "config "+name)
	kinds := make([]Kind, 0, sockets*perSocket)
	for s := 0; s < sockets; s++ {
		kinds = append(kinds, socket.Kinds...)
	}
	return Config{
		Name:    name,
		Kinds:   kinds,
		TierSet: tiers,
		Topo:    topo.Uniform(sockets, domainsPerSocket, perSocket/domainsPerSocket, penaltyCycles),
	}
}

// DescribeTopology renders the config's socket/LLC-domain layout for the
// CLI tools: a summary line plus one line per domain with its socket, core
// range and tier mix. Flat configs get a single "flat" line.
func (c Config) DescribeTopology() []string {
	t := c.Topo
	if t.IsFlat() {
		return []string{fmt.Sprintf("topology: flat (%d cores, one implicit LLC domain)", len(c.Kinds))}
	}
	lines := []string{fmt.Sprintf("topology: %d sockets, %d LLC domains, migration cost %g cycles/hop",
		t.NumSockets(), t.NumDomains(), t.PenaltyCycles)}
	for di, d := range t.Domains {
		counts := make([]int, c.NumTiers())
		for _, id := range d.Cores {
			counts[c.Kinds[id]]++
		}
		mix := ""
		for i := len(counts) - 1; i >= 0; i-- {
			if counts[i] == 0 {
				continue
			}
			if mix != "" {
				mix += "+"
			}
			sym := c.Tiers()[i].Symbol
			if sym == "" {
				sym = "?"
			}
			mix += fmt.Sprintf("%d%s", counts[i], sym)
		}
		lines = append(lines, fmt.Sprintf("  socket %d / domain %d: cores %s (%s)", d.Socket, di, coreRangeString(d.Cores), mix))
	}
	return lines
}

// coreRangeString compresses a core list into "0-31" / "0-3,8" display form.
func coreRangeString(ids []int) string {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	out := ""
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[j]+1 {
			j++
		}
		if out != "" {
			out += ","
		}
		if i == j {
			out += fmt.Sprintf("%d", sorted[i])
		} else {
			out += fmt.Sprintf("%d-%d", sorted[i], sorted[j])
		}
		i = j + 1
	}
	return out
}

// Ordered returns the config with its cores regrouped by tier: descending
// capacity when bigFirst (the evaluated default), ascending otherwise (the
// "-lf" variant the paper averages against). Per-tier counts are preserved.
// On a topology config the regrouping happens within each LLC domain, so
// the socket layout — and every domain's tier composition — is preserved.
func (c Config) Ordered(bigFirst bool) Config {
	var kinds []Kind
	if c.Topo.IsFlat() {
		counts := make([]int, c.NumTiers())
		for _, k := range c.Kinds {
			counts[k]++
		}
		kinds = make([]Kind, 0, len(c.Kinds))
		if bigFirst {
			for i := len(counts) - 1; i >= 0; i-- {
				for n := 0; n < counts[i]; n++ {
					kinds = append(kinds, Kind(i))
				}
			}
		} else {
			for i := 0; i < len(counts); i++ {
				for n := 0; n < counts[i]; n++ {
					kinds = append(kinds, Kind(i))
				}
			}
		}
	} else {
		kinds = make([]Kind, len(c.Kinds))
		for _, d := range c.Topo.Domains {
			ids := append([]int(nil), d.Cores...)
			sort.Ints(ids)
			counts := make([]int, c.NumTiers())
			for _, id := range ids {
				counts[c.Kinds[id]]++
			}
			pos := 0
			write := func(tier int) {
				for n := 0; n < counts[tier]; n++ {
					kinds[ids[pos]] = Kind(tier)
					pos++
				}
			}
			if bigFirst {
				for i := len(counts) - 1; i >= 0; i-- {
					write(i)
				}
			} else {
				for i := 0; i < len(counts); i++ {
					write(i)
				}
			}
		}
	}
	name := c.Name
	for len(name) > 3 && name[len(name)-3:] == "-lf" {
		name = name[:len(name)-3]
	}
	if !bigFirst {
		name += "-lf"
	}
	return Config{Name: name, Kinds: kinds, TierSet: c.TierSet, Topo: c.Topo}
}

// NumCores returns the total core count.
func (c Config) NumCores() int { return len(c.Kinds) }

// AggregateCapacity returns the machine's total nominal work-rate: the
// sum of every core's tier capacity, in base-tier (little-core) work
// units per nanosecond. Load generators use it to translate a target
// utilisation into an arrival rate.
func (c Config) AggregateCapacity() float64 {
	var total float64
	for i := range c.Kinds {
		total += c.Tier(i).Capacity
	}
	return total
}

// TierIndices returns the core indices belonging to the given tier, in
// core order.
func (c Config) TierIndices(tier int) []int {
	var out []int
	for i, k := range c.Kinds {
		if int(k) == tier {
			out = append(out, i)
		}
	}
	return out
}

// Spec returns the flattened core spec for core index i.
func (c Config) Spec(i int) Spec {
	t := c.Tier(i)
	return Spec{Kind: c.Kinds[i], Name: t.Model, FreqMHz: t.FreqMHz,
		L1IKB: t.L1IKB, L1DKB: t.L1DKB, L2KB: t.L2KB}
}

// NewSymmetric builds an n-core machine of a single core kind from the
// default palette — the symmetric big-only / little-only configurations the
// speedup model is trained on (§4.1) and the all-big metric baseline runs
// on.
func NewSymmetric(kind Kind, n int) Config {
	checkCoreCount(n, "NewSymmetric machine")
	kinds := make([]Kind, n)
	for i := range kinds {
		kinds[i] = kind
	}
	return Config{Name: fmt.Sprintf("%d%s", n, kind), Kinds: kinds}
}

// NewSymmetricTier builds an n-core machine whose cores all belong to the
// given tier — the single-tier training machines per-tier speedup models
// collect their counter runs on (the multi-tier analogue of NewSymmetric).
func NewSymmetricTier(t Tier, n int) Config {
	checkCoreCount(n, "NewSymmetricTier machine")
	kinds := make([]Kind, n)
	sym := t.Symbol
	if sym == "" {
		sym = t.Name
	}
	return Config{Name: fmt.Sprintf("%d%s-sym", n, sym), Kinds: kinds, TierSet: []Tier{t}}
}

// The four evaluated platform shapes (§5.1): xB yS = x big + y little cores.
var (
	Config2B2S = NewConfig(2, 2, true)
	Config2B4S = NewConfig(2, 4, true)
	Config4B2S = NewConfig(4, 2, true)
	Config4B4S = NewConfig(4, 4, true)
)

// Config2B2M2S is the tri-gear extension shape: 2 big + 2 medium + 2 little
// cores with DVFS ladders on every tier (ARM DynamIQ-style).
var Config2B2M2S = NewTieredConfig(TriGearTiers(), []int{2, 2, 2}, true)

// The committed big-machine palettes the mask-set affinity representation
// unlocks (the paper's shapes stop at 8 cores; these are the server-scale
// rungs the speed campaign benchmarks against).
var (
	// Config32B32M64S is a 128-core tri-gear server: 32 big + 32 medium +
	// 64 little cores with DVFS ladders on every tier.
	Config32B32M64S = NewTieredConfig(TriGearTiers(), []int{64, 32, 32}, true)
	// Config64B64S is a 128-core two-tier big.LITTLE server on the paper's
	// fixed-frequency anchor tiers.
	Config64B64S = NewConfig(64, 64, true)
)

// The committed NUMA palettes: multi-socket machines with shared-LLC
// domains and a cold-cache migration penalty per distance hop.
var (
	// Config2x32B32M64S is a 256-core two-socket tri-gear server: each
	// socket carries 32 big + 32 medium + 64 little cores split into two
	// LLC domains.
	Config2x32B32M64S = NewNUMAConfig(2, 2, TriGearTiers(), []int{64, 32, 32}, topo.DefaultPenaltyCycles, true)
	// Config4x16B16S is a 128-core four-socket big.LITTLE server: one LLC
	// domain per socket of 16 big + 16 little cores.
	Config4x16B16S = NewNUMAConfig(4, 1, DefaultTiers(), []int{16, 16}, topo.DefaultPenaltyCycles, true)
	// Config2x2B2S is the small two-socket shape (2 big + 2 little per
	// socket) the determinism tests and migration-cost sweeps use.
	Config2x2B2S = NewNUMAConfig(2, 1, DefaultTiers(), []int{2, 2}, topo.DefaultPenaltyCycles, true)
)

// EvaluatedConfigs lists the four paper platform shapes in paper order.
func EvaluatedConfigs() []Config {
	return []Config{Config2B2S, Config2B4S, Config4B2S, Config4B4S}
}

// NamedConfigs lists every named platform shape the tools accept: the four
// paper shapes, the tri-gear extension, the big-machine palettes and the
// multi-socket NUMA palettes.
func NamedConfigs() []Config {
	return append(EvaluatedConfigs(), Config2B2M2S, Config32B32M64S, Config64B64S,
		Config2x2B2S, Config2x32B32M64S, Config4x16B16S)
}

// ConfigByName returns the named config (for CLI tools), or false.
func ConfigByName(name string) (Config, bool) {
	for _, c := range NamedConfigs() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}
